package rados

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrOSDDown marks a request failed because its OSD is down or crashed
// while holding it. Client retry logic matches it with errors.Is to decide
// that another replica (or a later attempt) may still succeed.
var ErrOSDDown = errors.New("osd down")

// OpType distinguishes read from write service.
type OpType int

const (
	// OpRead reads object data.
	OpRead OpType = iota
	// OpWrite writes object data.
	OpWrite
)

func (o OpType) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// OSDProfile parameterises per-OSD service times. The defaults approximate
// the paper's testbed OSDs (Ceph OSD daemon + drive behind a 10 GbE node):
// tens of microseconds of fixed cost plus a size-dependent term.
type OSDProfile struct {
	ReadBase    sim.Duration
	WriteBase   sim.Duration
	ReadPerKiB  sim.Duration
	WritePerKiB sim.Duration
	// RandReadPenalty and RandWritePenalty are added when the client marks
	// the request as part of a random access pattern (drive-level
	// locality: lookups and seeks that sequential streams amortise).
	RandReadPenalty  sim.Duration
	RandWritePenalty sim.Duration
	// JitterFrac is the relative standard deviation of the service time
	// (normal, clamped at zero).
	JitterFrac float64
	// Lanes is the number of requests an OSD services concurrently
	// (journal + worker threads).
	Lanes int
}

// DefaultOSDProfile returns the calibrated testbed profile.
// Writes ack from the OSD journal (write-back), so their base service is
// close to reads' but random reads pay the full media lookup — which is why
// the paper's software baseline shows 4 kB random reads slower than random
// writes (85 µs vs 80 µs in Fig. 3).
func DefaultOSDProfile() OSDProfile {
	return OSDProfile{
		ReadBase:         14 * sim.Microsecond,
		WriteBase:        14 * sim.Microsecond,
		ReadPerKiB:       90 * sim.Nanosecond,
		WritePerKiB:      140 * sim.Nanosecond,
		RandReadPenalty:  30 * sim.Microsecond,
		RandWritePenalty: 12 * sim.Microsecond,
		JitterFrac:       0.05,
		Lanes:            8,
	}
}

// OSD is one object storage daemon: a service station with a bounded number
// of concurrent lanes, a backing ObjectStore, and health state.
type OSD struct {
	ID      int
	Profile OSDProfile
	Store   ObjectStore

	eng   *sim.Engine
	lanes *sim.Resource
	rng   *sim.RNG
	up    bool
	// silent marks a black-hole failure: the daemon is dead but the cluster
	// has not detected it yet (Up() still reports true, matching the window
	// before Ceph's monitor marks an unresponsive OSD down). A silent OSD
	// accepts nothing and completes nothing — requests just vanish, so
	// callers only learn via their own deadlines.
	silent bool
	// healthWatch, when set, fires on every liveness transition (alive =
	// up && !silent). The Raft layer uses it to park/resume member timers.
	healthWatch func(alive bool)
	// slow multiplies mean service time while > 1 (fault injection models
	// a degrading drive this way); 0 or 1 means healthy.
	slow float64
	// pending tracks accepted-but-uncompleted requests so a crash can fail
	// them immediately (see SetUp / Drain).
	pending []*pendingOp
	// free recycles finished ops (see pendingOp).
	free []*pendingOp

	served  uint64
	crashes uint64
	// traceSink receives one "osd-service" span per sampled request,
	// split into lane-queue wait and drive service (nil = tracing off).
	// It must be a sink registered on this OSD's own domain.
	traceSink *trace.Sink
}

// SetTraceSink wires the OSD's span sink; pass nil to disable. The sink
// must belong to the simulation domain the OSD runs on.
func (o *OSD) SetTraceSink(s *trace.Sink) { o.traceSink = s }

// pendingOp is one accepted request: its arguments and its place in the
// OSD's service chain. idx is its position in the OSD's pending slice
// (swap-removal keeps completion O(1)); aborted is set when a crash already
// failed the request, telling the service chain not to complete it a second
// time. Ops are recycled through the OSD's freelist once their service
// ends; step is bound once per struct, so a recycled op schedules its chain
// without allocating.
type pendingOp struct {
	o       *OSD
	step    func()
	stage   uint8
	aborted bool
	idx     int

	op    OpType
	opts  ReqOpts
	obj   string
	off   int
	data  []byte
	n     int
	done  func(Result)
	start sim.Time
	wait  sim.Duration
}

// Service-chain stages of a pendingOp: every OSD request is the event chain
// Schedule(0) → lane acquire → Schedule(service) → release and complete.
const (
	stageAdmit   uint8 = iota // admission event: queue for a lane
	stageService              // lane held: draw the service time and sleep it
	stageRelease              // service over: free the lane and complete
)

// NewOSD constructs an OSD with the given profile and store.
func NewOSD(eng *sim.Engine, id int, profile OSDProfile, store ObjectStore) *OSD {
	if profile.Lanes <= 0 {
		profile.Lanes = 1
	}
	return &OSD{
		ID:      id,
		Profile: profile,
		Store:   store,
		eng:     eng,
		lanes:   eng.NewResource(profile.Lanes),
		rng:     sim.NewRNG(0x05D0 + uint64(id)*2654435761),
		up:      true,
	}
}

// Up reports whether the OSD is in service.
func (o *OSD) Up() bool { return o.up }

// SetUp marks the OSD up or down. Going down is a crash: every queued and
// in-flight request fails immediately with ErrOSDDown, so client retry
// logic sees the failure at crash time rather than after the request would
// have been served. Planned maintenance that lets in-flight work finish is
// Drain.
func (o *OSD) SetUp(up bool) {
	was := o.Alive()
	if !up && o.up {
		o.crash()
	}
	o.up = up
	o.notifyHealth(was)
}

// Alive reports real liveness: up and not silently failed. Up() is what the
// cluster *believes*; Alive() is the ground truth fault injection controls.
func (o *OSD) Alive() bool { return o.up && !o.silent }

// SetSilent toggles the black-hole failure mode. Entering it aborts every
// pending request WITHOUT completing its callback (the bytes are simply
// lost, like a kernel panic before the ack hits the wire): clients discover
// the loss only through their own attempt deadlines, which is exactly the
// detection-delay window the availability experiments measure. Leaving it
// restores normal service for future requests.
func (o *OSD) SetSilent(silent bool) {
	was := o.Alive()
	if silent && !o.silent {
		o.crashes++
		for _, pd := range o.pending {
			pd.aborted = true
		}
		o.pending = o.pending[:0]
	}
	o.silent = silent
	o.notifyHealth(was)
}

// SetHealthWatch installs the liveness-transition callback (nil disables).
func (o *OSD) SetHealthWatch(fn func(alive bool)) { o.healthWatch = fn }

// notifyHealth fires the health watch if liveness changed from was.
func (o *OSD) notifyHealth(was bool) {
	if now := o.Alive(); o.healthWatch != nil && now != was {
		o.healthWatch(now)
	}
}

// crash fails every pending request with ErrOSDDown, scheduling the
// failures at the current time in deterministic (pending-set) order.
func (o *OSD) crash() {
	o.crashes++
	for _, pd := range o.pending {
		pd.aborted = true
		done := pd.done
		id := o.ID
		o.eng.Schedule(0, func() {
			done(Result{Err: fmt.Errorf("rados: osd.%d crashed: %w", id, ErrOSDDown)})
		})
	}
	o.pending = o.pending[:0]
}

// SetSlow sets the service-time multiplier (a degrading drive); factor <= 1
// restores healthy timing.
func (o *OSD) SetSlow(factor float64) {
	if factor < 1 {
		factor = 1
	}
	o.slow = factor
}

// SlowFactor returns the current service-time multiplier (1 = healthy).
func (o *OSD) SlowFactor() float64 {
	if o.slow < 1 {
		return 1
	}
	return o.slow
}

// Served returns the number of completed requests.
func (o *OSD) Served() uint64 { return o.served }

// Crashes returns how many times the OSD crashed with work pending or not.
func (o *OSD) Crashes() uint64 { return o.crashes }

// InFlight returns the number of accepted, uncompleted requests.
func (o *OSD) InFlight() int { return len(o.pending) }

func (o *OSD) serviceTime(op OpType, n int, random bool) sim.Duration {
	var base, perKiB sim.Duration
	if op == OpRead {
		base, perKiB = o.Profile.ReadBase, o.Profile.ReadPerKiB
		if random {
			base += o.Profile.RandReadPenalty
		}
	} else {
		base, perKiB = o.Profile.WriteBase, o.Profile.WritePerKiB
		if random {
			base += o.Profile.RandWritePenalty
		}
	}
	mean := base + sim.Duration(int64(perKiB)*int64(n)/1024)
	if o.slow > 1 {
		mean = sim.Duration(float64(mean) * o.slow)
	}
	if o.Profile.JitterFrac <= 0 {
		return mean
	}
	return o.rng.NormDuration(mean, sim.Duration(float64(mean)*o.Profile.JitterFrac))
}

// Result carries the outcome of an OSD request.
type Result struct {
	Data []byte
	Err  error
}

// ReqOpts carries per-request service hints.
type ReqOpts struct {
	// Random marks the request as part of a random access pattern,
	// adding the profile's locality penalty.
	Random bool
	// Trace is the per-I/O trace context (zero = unsampled).
	Trace trace.Ref
}

// Submit enqueues a request and invokes done with the result when service
// completes. For OpWrite, data is stored at (obj, off); for OpRead, n bytes
// are returned. Submit never blocks the caller.
func (o *OSD) Submit(op OpType, obj string, off int, data []byte, n int, done func(Result)) {
	o.SubmitOpts(ReqOpts{}, op, obj, off, data, n, done)
}

// SubmitOpts is Submit with service hints.
//
// Service is event-driven: an admission event one Schedule(0) after the
// call queues for a lane, the lane grant draws the service time and sleeps
// it as one event, and that event frees the lane and completes the request.
// A crash while the request is queued or in service fails it at crash time
// (see SetUp); the chain still runs to the end of service, holding the lane
// like a zombie occupying the drive, but completes nothing.
func (o *OSD) SubmitOpts(opts ReqOpts, op OpType, obj string, off int, data []byte, n int, done func(Result)) {
	if !o.up {
		o.eng.Schedule(0, func() {
			done(Result{Err: fmt.Errorf("rados: osd.%d is down: %w", o.ID, ErrOSDDown)})
		})
		return
	}
	// A silent OSD black-holes the request: no error, no completion, ever.
	if o.silent {
		return
	}
	pd := o.newPending()
	pd.idx = len(o.pending)
	pd.op, pd.opts, pd.obj, pd.off, pd.data, pd.n, pd.done = op, opts, obj, off, data, n, done
	pd.start = o.eng.Now()
	o.pending = append(o.pending, pd)
	o.eng.Schedule(0, pd.step)
}

// newPending takes an op from the freelist or allocates one with its chain
// step bound.
func (o *OSD) newPending() *pendingOp {
	if k := len(o.free); k > 0 {
		pd := o.free[k-1]
		o.free[k-1] = nil
		o.free = o.free[:k-1]
		return pd
	}
	pd := &pendingOp{o: o}
	pd.step = pd.advance
	return pd
}

// advance runs the op's next chain stage.
func (pd *pendingOp) advance() {
	o := pd.o
	switch pd.stage {
	case stageAdmit:
		pd.stage = stageService
		o.lanes.AcquireThen(1, pd.step)
	case stageService:
		pd.wait = o.eng.Now().Sub(pd.start)
		size := pd.n
		if pd.op == OpWrite {
			size = len(pd.data)
		}
		st := o.serviceTime(pd.op, size, pd.opts.Random)
		pd.stage = stageRelease
		o.eng.Schedule(st, pd.step)
	case stageRelease:
		o.lanes.Release(1)
		if !pd.aborted {
			o.complete(pd)
		}
		o.recycle(pd)
	}
}

// complete stores or fetches the op's bytes and delivers its result.
func (o *OSD) complete(pd *pendingOp) {
	o.unregister(pd)
	var res Result
	switch pd.op {
	case OpWrite:
		res.Err = o.Store.Write(pd.obj, pd.off, pd.data)
	case OpRead:
		res.Data, res.Err = o.Store.Read(pd.obj, pd.off, pd.n)
	}
	o.served++
	// One uniform span name so critical-path aggregation pools all
	// replicas into a single "osd-service" attribution bucket.
	if o.traceSink != nil && pd.opts.Trace.Sampled() {
		o.traceSink.Emit(pd.opts.Trace, "osd-service",
			pd.start, o.eng.Now().Sub(pd.start), pd.wait, "", 0)
	}
	pd.done(res)
}

// recycle clears a finished op and returns it to the freelist.
func (o *OSD) recycle(pd *pendingOp) {
	step := pd.step
	*pd = pendingOp{o: o, step: step}
	o.free = append(o.free, pd)
}

// unregister swap-removes a completed request from the pending set.
func (o *OSD) unregister(pd *pendingOp) {
	last := len(o.pending) - 1
	o.pending[pd.idx] = o.pending[last]
	o.pending[pd.idx].idx = pd.idx
	o.pending[last] = nil
	o.pending = o.pending[:last]
}
