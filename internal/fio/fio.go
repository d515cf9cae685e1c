// Package fio is a flexible I/O workload generator in the spirit of the fio
// tool the paper benchmarks with: parallel jobs, bounded queue depth,
// sequential or random access, pure or mixed read/write, fixed block sizes,
// latency histograms and throughput/IOPS accounting — all in virtual time
// against a core.Stack.
//
// Every job, the multi-tenant victims and the noisy neighbor included, is
// one worker: a closed loop run as an event chain on the engine, with no
// goroutine. A job starts with one Schedule(0), a worker
// whose queue-depth window is full waits for the one wake event the
// window's Release schedules, and think time is one Schedule after every
// submit, the last one included: that wait can end the run, so it counts
// in Result.Elapsed.
package fio

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// JobSpec describes one workload.
type JobSpec struct {
	Name string
	// ReadPct is the read percentage (100 = pure read, 0 = pure write).
	ReadPct int
	Pattern core.Pattern
	// BlockSize in bytes.
	BlockSize int
	// BlockSplit optionally mixes block sizes (fio's bssplit): each op
	// draws a size by weight. When set, BlockSize is ignored except as
	// the alignment unit for offsets.
	BlockSplit []SizeWeight
	// QueueDepth is the per-job bound on outstanding I/Os (iodepth).
	QueueDepth int
	// Jobs is the number of parallel workers (numjobs); worker i submits
	// from CPU i.
	Jobs int
	// Ops is the number of measured operations per job.
	Ops int
	// RampOps per job are executed first and excluded from statistics.
	RampOps int
	// OffsetRange bounds the byte range exercised (0 = whole image).
	OffsetRange int64
	// ZipfTheta skews random offsets toward low-numbered blocks with a
	// bounded Zipf(theta) distribution (Gray et al.), scrambled across
	// the range so hot blocks are scattered. 0 disables (uniform); only
	// meaningful with Pattern == core.Rand.
	ZipfTheta float64
	// HotOpPct directs that percentage of random ops at the first
	// HotRangeBytes of the range (a two-level hot/cold split, the
	// classic cache-hit workload). 0 disables.
	HotOpPct      int
	HotRangeBytes int64
	// ThinkTime inserts virtual compute between issuing I/Os (application
	// processing, used by the OLAP/OLTP workloads).
	ThinkTime sim.Duration
	// Seed makes the random stream reproducible.
	Seed uint64
}

// SizeWeight is one bssplit entry.
type SizeWeight struct {
	Size   int
	Weight int
}

// maxBlockSize returns the largest size the job can issue.
func (s JobSpec) maxBlockSize() int {
	max := s.BlockSize
	for _, sw := range s.BlockSplit {
		if sw.Size > max {
			max = sw.Size
		}
	}
	return max
}

// pickSize draws a block size for one op.
func (s JobSpec) pickSize(rng *sim.RNG) int {
	if len(s.BlockSplit) == 0 {
		return s.BlockSize
	}
	total := 0
	for _, sw := range s.BlockSplit {
		total += sw.Weight
	}
	draw := rng.Intn(total)
	for _, sw := range s.BlockSplit {
		draw -= sw.Weight
		if draw < 0 {
			return sw.Size
		}
	}
	return s.BlockSplit[len(s.BlockSplit)-1].Size
}

func (s JobSpec) String() string {
	kind := "mixed"
	switch s.ReadPct {
	case 100:
		kind = "read"
	case 0:
		kind = "write"
	}
	return fmt.Sprintf("%s-%s-%dB-qd%d-j%d", s.Pattern, kind, s.BlockSize, s.QueueDepth, s.Jobs)
}

// Result aggregates a run.
type Result struct {
	Spec JobSpec
	// Lat is the overall completion latency histogram; ReadLat/WriteLat
	// split by direction.
	Lat      *metrics.Histogram
	ReadLat  *metrics.Histogram
	WriteLat *metrics.Histogram
	// Meter measures throughput/IOPS over the measured window.
	Meter *metrics.Meter
	// Errors counts failed operations.
	Errors int
	// Elapsed is the full-run virtual time.
	Elapsed sim.Duration
}

// IOPS of the measured window.
func (r *Result) IOPS() float64 { return r.Meter.IOPS() }

// KIOPS of the measured window.
func (r *Result) KIOPS() float64 { return r.Meter.KIOPS() }

// MBps of the measured window.
func (r *Result) MBps() float64 { return r.Meter.ThroughputMBps() }

func (r *Result) String() string {
	return fmt.Sprintf("%s: %.1f kIOPS %.1f MB/s lat(mean=%v p99=%v) errs=%d",
		r.Spec, r.KIOPS(), r.MBps(), r.Lat.Mean(), r.Lat.Percentile(99), r.Errors)
}

// Run executes the workload on the stack and drives the engine until every
// operation completes. The stack is closed afterwards.
func Run(eng *sim.Engine, stack core.Stack, spec JobSpec) (*Result, error) {
	if err := validate(&spec, stack); err != nil {
		return nil, err
	}
	res := newResult(eng, spec)
	start := eng.Now()
	for j := 0; j < spec.Jobs; j++ {
		w := newWorker(eng, stack, spec, j, jobSeed(spec, j))
		w.res = res
		w.start()
	}
	eng.Run()
	res.Elapsed = eng.Now().Sub(start)
	res.Meter.CloseAt(eng.Now())
	stack.Close()
	return res, nil
}

func newResult(eng *sim.Engine, spec JobSpec) *Result {
	return &Result{
		Spec:     spec,
		Lat:      metrics.NewHistogram(),
		ReadLat:  metrics.NewHistogram(),
		WriteLat: metrics.NewHistogram(),
		Meter:    metrics.NewMeter(eng.Now()),
	}
}

func validate(spec *JobSpec, stack core.Stack) error {
	if spec.BlockSize <= 0 {
		return fmt.Errorf("fio: block size %d", spec.BlockSize)
	}
	for _, sw := range spec.BlockSplit {
		if sw.Size <= 0 || sw.Weight <= 0 {
			return fmt.Errorf("fio: bad bssplit entry %+v", sw)
		}
	}
	if spec.Jobs <= 0 {
		spec.Jobs = 1
	}
	if spec.QueueDepth <= 0 {
		spec.QueueDepth = 1
	}
	if spec.Ops <= 0 {
		return fmt.Errorf("fio: ops %d", spec.Ops)
	}
	if spec.ReadPct < 0 || spec.ReadPct > 100 {
		return fmt.Errorf("fio: read pct %d", spec.ReadPct)
	}
	if spec.OffsetRange <= 0 || spec.OffsetRange > stack.ImageBytes() {
		spec.OffsetRange = stack.ImageBytes()
	}
	if int64(spec.maxBlockSize()) > spec.OffsetRange {
		return fmt.Errorf("fio: block size %d exceeds range %d", spec.maxBlockSize(), spec.OffsetRange)
	}
	return nil
}

// jobSeed is the random stream seed of job j.
func jobSeed(spec JobSpec, j int) uint64 {
	return spec.Seed*2654435761 + uint64(j)*0x9e3779b9
}

// worker is one job's closed loop, an event chain (see the package doc):
// it issues RampOps+Ops operations from CPU cpu, keeping at most
// QueueDepth in flight behind a sim.Resource window.
type worker struct {
	eng    *sim.Engine
	stack  core.Stack
	spec   JobSpec
	cpu    int
	rng    *sim.RNG
	window *sim.Resource

	// res aggregates the worker's measured ops (nil for a noisy
	// neighbor, which records per tenant only). run, when non-nil, is the
	// multi-tenant run the worker charges its service to; draw then picks
	// each op's tenant, or, when nil, every op goes to tenant.
	res    *Result
	run    *tenantRun
	draw   *tenantDraw
	tenant int

	blocks, hotBlocks int64
	zipf              *zipfGen
	// Sequential workers own a private segment so jobs do not interleave
	// into each other's streams.
	segStart, segment, seqOff int64

	issued int
	held   bool // a window wake handed the worker its slot
	free   []*ioRec
	nextFn func()
	slotFn func()
}

// ioRec is one in-flight op of a worker, recycled on completion; done is
// bound once, so issuing an op binds no closure.
type ioRec struct {
	w        *worker
	op       core.OpType
	size     int
	tenant   int
	measured bool
	at       sim.Time
	done     func(error)
}

func newWorker(eng *sim.Engine, stack core.Stack, spec JobSpec, cpu int, seed uint64) *worker {
	w := &worker{
		eng:    eng,
		stack:  stack,
		spec:   spec,
		cpu:    cpu,
		rng:    sim.NewRNG(seed),
		window: eng.NewResource(spec.QueueDepth),
	}
	bs := int64(spec.BlockSize)
	w.blocks = spec.OffsetRange / bs
	if w.blocks < 1 { // a hog's block size is not validated against the range
		w.blocks = 1
	}
	if spec.HotOpPct > 0 && spec.HotRangeBytes > 0 {
		w.hotBlocks = min(spec.HotRangeBytes/bs, w.blocks)
	}
	if spec.ZipfTheta > 0 && spec.HotOpPct == 0 {
		w.zipf = newZipfGen(w.blocks, spec.ZipfTheta)
	}
	if spec.Pattern != core.Rand {
		w.segment = spec.OffsetRange / int64(spec.Jobs)
		w.segment -= w.segment % bs
		if w.segment < bs {
			w.segment = bs
		}
		w.segStart = (int64(cpu) * w.segment) % (spec.OffsetRange - bs + 1)
		w.seqOff = w.segStart
	}
	w.nextFn = w.next
	w.slotFn = w.onSlot
	return w
}

// start schedules the worker's first step at the current virtual time.
func (w *worker) start() { w.eng.Schedule(0, w.nextFn) }

// next issues ops until the window is full, the think time defers the
// next one, or every op is issued.
func (w *worker) next() {
	for w.issued < w.spec.RampOps+w.spec.Ops {
		if !w.held && !w.window.TryAcquire(1) {
			w.window.AcquireThen(1, w.slotFn)
			return
		}
		w.held = false
		w.issue()
		if w.spec.ThinkTime > 0 {
			w.eng.Schedule(w.spec.ThinkTime, w.nextFn)
			return
		}
	}
}

// onSlot is the window wake: the released unit is already the worker's.
func (w *worker) onSlot() {
	w.held = true
	w.next()
}

// issue draws and submits one op. The draw order is fixed: tenant, then
// offset, then direction, then size.
func (w *worker) issue() {
	spec := &w.spec
	measured := w.issued >= spec.RampOps
	w.issued++
	tenant := w.tenant
	if w.draw != nil {
		tenant = w.draw.next(w.rng)
	}
	off := w.offset()
	op := core.Write
	if spec.ReadPct == 100 || (spec.ReadPct > 0 && w.rng.Intn(100) < spec.ReadPct) {
		op = core.Read
	}
	size := spec.pickSize(w.rng)
	if off+int64(size) > spec.OffsetRange {
		off = spec.OffsetRange - int64(size)
		off -= off % int64(spec.BlockSize)
		if off < 0 {
			off = 0
		}
	}
	r := w.getRec()
	r.op, r.size, r.tenant, r.measured, r.at = op, size, tenant, measured, w.eng.Now()
	w.stack.SubmitTenant(op, spec.Pattern, off, size, w.cpu, tenant, r.done)
}

// offset draws the next op's offset.
func (w *worker) offset() int64 {
	spec := &w.spec
	bs := int64(spec.BlockSize)
	if spec.Pattern != core.Rand {
		off := w.seqOff
		w.seqOff += bs
		if w.seqOff+bs > w.segStart+w.segment || w.seqOff+bs > spec.OffsetRange {
			w.seqOff = w.segStart
		}
		return off
	}
	switch {
	case w.hotBlocks > 0:
		if w.rng.Intn(100) < spec.HotOpPct {
			return w.rng.Int63n(w.hotBlocks) * bs
		}
		return w.rng.Int63n(w.blocks) * bs
	case w.zipf != nil:
		// Scatter ranks across the range so the hot set is not one
		// contiguous prefix.
		rank := w.zipf.next(w.rng)
		return (rank * 2654435761) % w.blocks * bs
	default:
		return w.rng.Int63n(w.blocks) * bs
	}
}

func (w *worker) getRec() *ioRec {
	if n := len(w.free); n > 0 {
		r := w.free[n-1]
		w.free = w.free[:n-1]
		return r
	}
	r := &ioRec{w: w}
	r.done = r.complete
	return r
}

// complete frees the op's window slot, then records it.
func (r *ioRec) complete(err error) {
	w := r.w
	w.window.Release(1)
	run := w.run
	if run != nil {
		run.charge(r.tenant, r.size)
		if w.res != nil {
			run.victimLeft--
		}
	}
	if r.measured {
		now := w.eng.Now()
		lat := now.Sub(r.at)
		if run != nil {
			run.res.PerTenant.Record(r.tenant, lat)
		}
		if res := w.res; res != nil {
			res.Lat.Record(lat)
			if r.op == core.Read {
				res.ReadLat.Record(lat)
			} else {
				res.WriteLat.Record(lat)
			}
			if err != nil {
				res.Errors++
			} else {
				res.Meter.Add(now, r.size)
			}
		}
	}
	w.free = append(w.free, r)
}
