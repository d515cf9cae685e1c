package rados

import (
	"errors"
	"fmt"

	"repro/internal/crush"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrDeadline marks an attempt abandoned at its per-attempt deadline. The
// operation may still complete on the cluster (the attempt keeps running
// unobserved), which is why only idempotent ops are retried this way.
var ErrDeadline = errors.New("deadline exceeded")

// RetryPolicy configures client-side resilience: per-attempt deadlines,
// bounded retries with caller-supplied backoff, and read failover to
// replica OSDs. A nil policy on the Client is the zero-cost healthy path —
// every request is issued exactly once, as before.
type RetryPolicy struct {
	// Deadline bounds each attempt; 0 disables (attempts wait forever).
	Deadline sim.Duration
	// MaxRetries is the number of re-issues after the first attempt.
	MaxRetries int
	// Backoff returns the delay before retry attempt (0-based); nil retries
	// immediately. Callers bind a seeded jitter source here (faults.Backoff)
	// so retry timing replays deterministically.
	Backoff func(attempt int) sim.Duration
	// Counters, when non-nil, receives resilience accounting.
	Counters *metrics.Resilience
}

// Repl is a pluggable replication protocol for one replicated pool (the
// per-PG Raft backend in internal/raft implements it). The client routes
// requests for the protocol's pool through it instead of the primary-copy
// paths; every other pool is untouched. Implementations complete done from
// fabric arrivals on the client's engine, like the client's own callbacks.
type Repl interface {
	// Pool returns the pool this protocol replicates.
	Pool() *Pool
	// Write commits n bytes at (obj, off) and completes done.
	Write(obj string, off, n int, opts ReqOpts, done func(error))
	// Read fetches n bytes at (obj, off) and completes done.
	Read(obj string, off, n int, opts ReqOpts, done func(error))
}

// Client executes object operations against a Cluster using the software
// primary-copy protocol (the Ceph baseline): the client talks to the acting
// primary, which fans replication or erasure shards out to the other acting
// OSDs. Host-side API costs (io_uring vs. NBD, context switches) are NOT
// charged here — they belong to the framework stacks in internal/core.
type Client struct {
	Cluster *Cluster
	Host    *netsim.Host

	// PlacementCost is the client CPU time to compute CRUSH placement per
	// operation (the software CRUSH kernel; 0 when an accelerator owns it).
	PlacementCost sim.Duration
	// ECEncodeCost returns the primary's CPU time to erasure-encode n
	// bytes; ECDecodeCost the time to reconstruct n bytes.
	ECEncodeCost func(n int) sim.Duration
	// ECDecodeCost is charged when a read needs parity reconstruction.
	ECDecodeCost func(n int) sim.Duration
	// Functional controls whether payload bytes are really moved through
	// the erasure codec and stores. Benchmarks switch it off to model
	// timing over synthetic payloads without the memory traffic.
	Functional bool
	// Retry, when non-nil, arms deadlines, retries and read failover.
	Retry *RetryPolicy
	// Repl, when non-nil, routes requests for Repl.Pool() through an
	// alternative replication protocol (repl-raft); other pools keep the
	// primary-copy paths. Unsupported on a split-domain client.
	Repl Repl
	// TraceSink, when non-nil, receives client-side recovery spans
	// (retry attempts, read failovers, degraded-read decodes) for sampled
	// ops. It must belong to the client's own domain; split-domain mode
	// never touches it from OSD-side arrivals because retries, failover
	// and EC are all rejected there.
	TraceSink *trace.Sink

	// TransportSpan, when non-nil, measures the host→primary request leg
	// of each split-domain operation. It is called on the client's shard
	// as the request is handed to the fabric; the returned func runs at
	// the request's canonical arrival on the OSD shard and receives that
	// shard's engine, whose clock at the arrival event IS the canonical
	// arrival time. Reading the client engine's clock there instead would
	// race with the host shard's window worker and observe a mid-window
	// skewed time.
	TransportSpan func() func(arrive *sim.Engine)

	// Split routes replicated I/O through the arrival-driven split-domain
	// protocol: the client host and the OSD nodes live in different
	// topology domains of a sharded engine group, so no completion or
	// queue state may be touched across the boundary. Erasure pools,
	// retries and fault injection are unsupported in this mode.
	Split bool
	// Eng is the engine the client's procs and completions live on; nil
	// means the cluster's engine (the single-domain default).
	Eng *sim.Engine

	// place is the split-domain client's own placement memo (see
	// splitActing); nil until the first split op.
	place *crush.Memo
}

// NewClient attaches a client host to the cluster's fabric.
func NewClient(c *Cluster, name string, bitsPerSec float64, stack netsim.StackCost) (*Client, error) {
	h, err := c.Fabric.AddHost(name, bitsPerSec, stack)
	if err != nil {
		return nil, err
	}
	return &Client{
		Cluster:      c,
		Host:         h,
		ECEncodeCost: func(n int) sim.Duration { return 10*sim.Microsecond + sim.Duration(n/1024)*200*sim.Nanosecond },
		ECDecodeCost: func(n int) sim.Duration { return 12*sim.Microsecond + sim.Duration(n/1024)*250*sim.Nanosecond },
		Functional:   true,
	}, nil
}

func (cl *Client) fabric() *netsim.Fabric { return cl.Cluster.Fabric }

// eng returns the engine the client's completions live on.
func (cl *Client) eng() *sim.Engine {
	if cl.Eng != nil {
		return cl.Eng
	}
	return cl.Cluster.Eng
}

// shardKey names the stored shard object for an EC stripe write.
func shardKey(obj string, off, rank int) string {
	return ShardKey(obj, off, rank)
}

// Write stores data at (obj, off) in the pool and returns when the write is
// durable on all reachable placement targets.
func (cl *Client) Write(p *sim.Proc, pool *Pool, obj string, off int, data []byte) error {
	return cl.WriteOpts(p, pool, obj, off, data, ReqOpts{})
}

// WriteOpts is Write with per-request service hints.
func (cl *Client) WriteOpts(p *sim.Proc, pool *Pool, obj string, off int, data []byte, opts ReqOpts) error {
	if cl.Split {
		if pool.Kind == ECPool {
			return fmt.Errorf("rados: erasure pools are not supported on a split-domain client")
		}
		return cl.writeReplicatedSplit(p, pool, obj, off, data, opts)
	}
	repl := cl.Repl != nil && pool == cl.Repl.Pool()
	if cl.Retry == nil {
		if repl {
			return cl.replWrite(p, obj, off, len(data), opts)
		}
		if pool.Kind == ECPool {
			return cl.writeEC(p, pool, obj, off, data, opts)
		}
		return cl.writeReplicated(p, pool, obj, off, data, opts)
	}
	_, err := cl.withRetry(p, true, opts.Trace, func(sp *sim.Proc, try int, atr trace.Ref) (any, error) {
		aopts := opts
		aopts.Trace = atr
		if repl {
			return nil, cl.replWrite(sp, obj, off, len(data), aopts)
		}
		if pool.Kind == ECPool {
			return nil, cl.writeEC(sp, pool, obj, off, data, aopts)
		}
		return nil, cl.writeReplicated(sp, pool, obj, off, data, aopts)
	})
	return err
}

// replWrite routes a write through the pluggable replication protocol and
// blocks the proc until it commits. Placement is still charged here — the
// protocol router computes PG placement just like the primary-copy path.
func (cl *Client) replWrite(p *sim.Proc, obj string, off, n int, opts ReqOpts) error {
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	done := cl.eng().NewCompletion()
	cl.Repl.Write(obj, off, n, opts, func(err error) { done.Complete(nil, err) })
	_, err := p.Await(done)
	return err
}

// replRead routes a read through the pluggable replication protocol. The
// protocol layer is a timing/availability model over synthetic payloads, so
// the client hands back zeros of the requested length.
func (cl *Client) replRead(p *sim.Proc, obj string, off, n int, opts ReqOpts) ([]byte, error) {
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	done := cl.eng().NewCompletion()
	cl.Repl.Read(obj, off, n, opts, func(err error) { done.Complete(nil, err) })
	if _, err := p.Await(done); err != nil {
		return nil, err
	}
	return zeroBytes(n), nil
}

// withRetry drives attempt through the retry policy. Each attempt runs in
// its own proc so a deadline can abandon it: the attempt proc keeps running
// to completion (the cluster may still apply the op), but nobody observes
// its result — the same semantics as a timed-out RPC. Write outcomes feed
// the counters' unavailability-window tracking: a write that exhausts its
// budget opens a stall window backdated to the op's start, the next
// committed write closes it.
func (cl *Client) withRetry(p *sim.Proc, isWrite bool, tr trace.Ref, attempt func(sp *sim.Proc, try int, atr trace.Ref) (any, error)) (any, error) {
	r := cl.Retry
	eng := cl.Cluster.Eng
	start := eng.Now()
	var prevAttempt uint64 // span ID of the previous attempt (cause link)
	for try := 0; ; try++ {
		c := eng.NewCompletion()
		t := try
		h := cl.TraceSink.Begin(tr, "rados-attempt")
		if try > 0 {
			h.Link(trace.KindRetry, prevAttempt)
		}
		prevAttempt = h.ID()
		// Children of this attempt (OSD service spans, failover markers)
		// parent under the attempt span so the critical path can descend
		// attempt → osd-service; unsampled ops pass the zero Ref through.
		atr := tr
		if h.On() {
			atr = h.Ref()
		}
		eng.Spawn("rados-attempt", func(sp *sim.Proc) {
			v, err := attempt(sp, t, atr)
			c.Complete(v, err)
		})
		var v any
		var err error
		if r.Deadline > 0 {
			var ok bool
			v, err, ok = p.AwaitTimeout(c, r.Deadline)
			if !ok {
				if r.Counters != nil {
					r.Counters.DeadlineExceeded++
				}
				v, err = nil, ErrDeadline
			}
		} else {
			v, err = p.Await(c)
		}
		// The attempt span ends when the caller stops observing it — at
		// completion or at deadline abandonment (the proc may run on).
		h.End()
		if err == nil || try >= r.MaxRetries {
			if isWrite && r.Counters != nil {
				if err == nil {
					r.Counters.WriteOK(eng.Now())
				} else {
					r.Counters.WriteFailed(start)
				}
			}
			return v, err
		}
		if r.Counters != nil {
			r.Counters.Retries++
		}
		if r.Backoff != nil {
			if d := r.Backoff(try); d > 0 {
				p.Sleep(d)
			}
		}
	}
}

func (cl *Client) writeReplicated(p *sim.Proc, pool *Pool, obj string, off int, data []byte, opts ReqOpts) error {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		return err
	}
	var up []int
	for _, o := range acting {
		if o != crush.ItemNone && c.OSDs[o].Up() {
			up = append(up, o)
		}
	}
	if len(up) == 0 {
		return fmt.Errorf("rados: pg for %q has no up replicas", obj)
	}
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	primary := up[0]
	pNode := c.NodeOf(primary)
	cl.fabric().SendWait(p, cl.Host, pNode, HdrBytes+len(data))

	// Primary writes locally and replicates to the other up members in
	// parallel; each follower acks the primary.
	comps := make([]*sim.Completion, 0, len(up))
	local := c.Eng.NewCompletion()
	c.OSDs[primary].SubmitOpts(opts, OpWrite, obj, off, data, 0, func(r Result) {
		local.Complete(nil, r.Err)
	})
	comps = append(comps, local)
	for _, o := range up[1:] {
		o := o
		comp := c.Eng.NewCompletion()
		oNode := c.NodeOf(o)
		cl.fabric().Send(pNode, oNode, HdrBytes+len(data), func() {
			c.OSDs[o].SubmitOpts(opts, OpWrite, obj, off, data, 0, func(r Result) {
				cl.fabric().Send(oNode, pNode, HdrBytes, func() {
					comp.Complete(nil, r.Err)
				})
			})
		})
		comps = append(comps, comp)
	}
	var firstErr error
	for _, comp := range comps {
		if _, err := p.Await(comp); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cl.fabric().SendWait(p, pNode, cl.Host, HdrBytes)
	return firstErr
}

// splitActing returns the acting set of obj's PG from the client's own
// placement memo. A split-domain client runs on the host shard, where
// filling the cluster's shared cache would race with the OSD shards, so it
// keeps a memo of its own, created on first use and validated against the
// CRUSH map generation and the cluster epoch (the reweight version). The
// result is shared with the memo: treat it as read-only.
func (cl *Client) splitActing(pool *Pool, obj string) ([]int, error) {
	c := cl.Cluster
	if cl.place == nil {
		cl.place = crush.NewMemo(c.Map)
	}
	return c.actingIn(cl.place, pool, c.PGOf(pool, obj))
}

// writeReplicatedSplit is the replicated write on a split-domain
// deployment. Every piece of OSD-side work runs inside a fabric arrival
// on the OSD shard; follower acks are counted at the primary rather than
// awaited as client-side completions, and the client observes exactly one
// completion, completed by the final primary→client ack arriving back on
// its own shard. Fault injection is rejected in split mode, so the acting
// set is taken as healthy (no up/down filtering — reading OSD state from
// the host shard would cross the domain boundary).
func (cl *Client) writeReplicatedSplit(p *sim.Proc, pool *Pool, obj string, off int, data []byte, opts ReqOpts) error {
	c := cl.Cluster
	acting, err := cl.splitActing(pool, obj)
	if err != nil {
		return err
	}
	// acting is shared with the placement memo: find the primary (first
	// placed member) and count the placed members without filtering the
	// slice in place.
	first, placed := -1, 0
	for i, o := range acting {
		if o != crush.ItemNone {
			if first < 0 {
				first = i
			}
			placed++
		}
	}
	if placed == 0 {
		return fmt.Errorf("rados: pg for %q has no placed replicas", obj)
	}
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	primary := acting[first]
	pNode := c.NodeOf(primary)
	fab := cl.fabric()
	done := cl.eng().NewCompletion()
	endNet := func(*sim.Engine) {}
	if cl.TransportSpan != nil {
		endNet = cl.TransportSpan()
	}
	fab.Send(cl.Host, pNode, HdrBytes+len(data), func() {
		// OSD-shard context from here on; spans close against the primary
		// node's own domain clock.
		endNet(c.EngineOf(primary))
		remaining := placed
		var firstErr error
		ackOne := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if remaining--; remaining == 0 {
				e := firstErr
				fab.Send(pNode, cl.Host, HdrBytes, func() {
					done.Complete(nil, e)
				})
			}
		}
		c.OSDs[primary].SubmitOpts(opts, OpWrite, obj, off, data, 0, func(r Result) {
			ackOne(r.Err)
		})
		for _, o := range acting[first+1:] {
			if o == crush.ItemNone {
				continue
			}
			oNode := c.NodeOf(o)
			fab.Send(pNode, oNode, HdrBytes+len(data), func() {
				c.OSDs[o].SubmitOpts(opts, OpWrite, obj, off, data, 0, func(r Result) {
					fab.Send(oNode, pNode, HdrBytes, func() { ackOne(r.Err) })
				})
			})
		}
	})
	_, err = p.Await(done)
	return err
}

// readReplicatedSplit is the primary read on a split-domain deployment:
// arrival-driven like writeReplicatedSplit, with the payload handed back
// to the host shard inside the response message.
func (cl *Client) readReplicatedSplit(p *sim.Proc, pool *Pool, obj string, off, n int, opts ReqOpts) ([]byte, error) {
	c := cl.Cluster
	acting, err := cl.splitActing(pool, obj)
	if err != nil {
		return nil, err
	}
	primary := crush.ItemNone
	for _, o := range acting {
		if o != crush.ItemNone {
			primary = o
			break
		}
	}
	if primary == crush.ItemNone {
		return nil, fmt.Errorf("rados: pg for %q has no placed replicas", obj)
	}
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	pNode := c.NodeOf(primary)
	fab := cl.fabric()
	done := cl.eng().NewCompletion()
	endNet := func(*sim.Engine) {}
	if cl.TransportSpan != nil {
		endNet = cl.TransportSpan()
	}
	fab.Send(cl.Host, pNode, HdrBytes, func() {
		endNet(c.EngineOf(primary))
		c.OSDs[primary].SubmitOpts(opts, OpRead, obj, off, nil, n, func(r Result) {
			if r.Err != nil {
				rerr := r.Err
				fab.Send(pNode, cl.Host, HdrBytes, func() { done.Complete(nil, rerr) })
				return
			}
			data := r.Data
			fab.Send(pNode, cl.Host, HdrBytes+n, func() { done.Complete(data, nil) })
		})
	})
	v, err := p.Await(done)
	if err != nil {
		return nil, err
	}
	data, _ := v.([]byte)
	return data, nil
}

// Read returns n bytes at (obj, off).
func (cl *Client) Read(p *sim.Proc, pool *Pool, obj string, off, n int) ([]byte, error) {
	return cl.ReadOpts(p, pool, obj, off, n, ReqOpts{})
}

// ReadOpts is Read with per-request service hints.
func (cl *Client) ReadOpts(p *sim.Proc, pool *Pool, obj string, off, n int, opts ReqOpts) ([]byte, error) {
	if cl.Split {
		if pool.Kind == ECPool {
			return nil, fmt.Errorf("rados: erasure pools are not supported on a split-domain client")
		}
		return cl.readReplicatedSplit(p, pool, obj, off, n, opts)
	}
	repl := cl.Repl != nil && pool == cl.Repl.Pool()
	if cl.Retry == nil {
		if repl {
			return cl.replRead(p, obj, off, n, opts)
		}
		if pool.Kind == ECPool {
			return cl.readEC(p, pool, obj, off, n, opts)
		}
		return cl.readReplicated(p, pool, obj, off, n, opts, 0)
	}
	v, err := cl.withRetry(p, false, opts.Trace, func(sp *sim.Proc, try int, atr trace.Ref) (any, error) {
		aopts := opts
		aopts.Trace = atr
		if repl {
			return cl.replRead(sp, obj, off, n, aopts)
		}
		if pool.Kind == ECPool {
			return cl.readEC(sp, pool, obj, off, n, aopts)
		}
		return cl.readReplicated(sp, pool, obj, off, n, aopts, try)
	})
	if err != nil {
		return nil, err
	}
	data, _ := v.([]byte)
	return data, nil
}

// readReplicated reads from one replica. shift rotates the source among the
// up members of the acting set (retry attempt k reads from the k-th up
// replica, mod the up count) so failed primaries fail over instead of being
// re-asked forever; shift 0 is the plain primary read.
func (cl *Client) readReplicated(p *sim.Proc, pool *Pool, obj string, off, n int, opts ReqOpts, shift int) ([]byte, error) {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		return nil, err
	}
	primary, ok := c.PrimaryFor(acting)
	if !ok {
		return nil, fmt.Errorf("rados: pg for %q has no up replicas", obj)
	}
	if shift > 0 {
		up := make([]int, 0, len(acting))
		for _, o := range acting {
			if o != crush.ItemNone && c.OSDs[o].Up() {
				up = append(up, o)
			}
		}
		if o := up[shift%len(up)]; o != primary {
			primary = o
			if cl.Retry != nil && cl.Retry.Counters != nil {
				cl.Retry.Counters.Failovers++
			}
			// Instant cause marker: this attempt reads a non-primary
			// replica because earlier attempts failed.
			if cl.TraceSink != nil && opts.Trace.Sampled() {
				cl.TraceSink.Emit(opts.Trace, "replica-failover",
					cl.eng().Now(), 0, 0, trace.KindFailover, 0)
			}
		}
	}
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	pNode := c.NodeOf(primary)
	cl.fabric().SendWait(p, cl.Host, pNode, HdrBytes)
	done := c.Eng.NewCompletion()
	c.OSDs[primary].SubmitOpts(opts, OpRead, obj, off, nil, n, func(r Result) {
		done.Complete(r, r.Err)
	})
	v, _ := p.Await(done)
	res := v.(Result)
	if res.Err != nil {
		return nil, res.Err
	}
	cl.fabric().SendWait(p, pNode, cl.Host, HdrBytes+n)
	return res.Data, nil
}

func (cl *Client) writeEC(p *sim.Proc, pool *Pool, obj string, off int, data []byte, opts ReqOpts) error {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		return err
	}
	upCount := 0
	for _, o := range acting {
		if o != crush.ItemNone && c.OSDs[o].Up() {
			upCount++
		}
	}
	if upCount < pool.K {
		return fmt.Errorf("rados: pg for %q has %d up shards, need >= %d", obj, upCount, pool.K)
	}
	primary, _ := c.PrimaryFor(acting)
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	pNode := c.NodeOf(primary)
	cl.fabric().SendWait(p, cl.Host, pNode, HdrBytes+len(data))

	// Primary encodes, then distributes shards to the acting ranks.
	p.Sleep(cl.ECEncodeCost(len(data)))
	shardSize := (len(data) + pool.K - 1) / pool.K
	var shards [][]byte
	if cl.Functional {
		shards = pool.Code.Split(data)
		if err := pool.Code.Encode(shards); err != nil {
			return err
		}
	}
	var comps []*sim.Completion
	for rank, o := range acting {
		if o == crush.ItemNone || !c.OSDs[o].Up() {
			continue // degraded write: skip unreachable shard
		}
		var payload []byte
		if cl.Functional {
			payload = shards[rank]
		} else {
			payload = make([]byte, 0) // size carried separately below
		}
		key := shardKey(obj, off, rank)
		comp := c.Eng.NewCompletion()
		comps = append(comps, comp)
		o := o
		writeShard := func() {
			d := payload
			if !cl.Functional {
				d = zeroBytes(shardSize)
			}
			oNode := c.NodeOf(o)
			c.OSDs[o].SubmitOpts(opts, OpWrite, key, 0, d, 0, func(r Result) {
				if o == primary {
					comp.Complete(nil, r.Err)
					return
				}
				cl.fabric().Send(oNode, pNode, HdrBytes, func() {
					comp.Complete(nil, r.Err)
				})
			})
		}
		if o == primary {
			writeShard()
		} else {
			cl.fabric().Send(pNode, c.NodeOf(o), HdrBytes+shardSize, writeShard)
		}
	}
	var firstErr error
	for _, comp := range comps {
		if _, err := p.Await(comp); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cl.fabric().SendWait(p, pNode, cl.Host, HdrBytes)
	return firstErr
}

func (cl *Client) readEC(p *sim.Proc, pool *Pool, obj string, off, n int, opts ReqOpts) ([]byte, error) {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		return nil, err
	}
	primary, ok := c.PrimaryFor(acting)
	if !ok {
		return nil, fmt.Errorf("rados: pg for %q has no up shards", obj)
	}
	if cl.PlacementCost > 0 {
		p.Sleep(cl.PlacementCost)
	}
	pNode := c.NodeOf(primary)
	cl.fabric().SendWait(p, cl.Host, pNode, HdrBytes)

	// Choose k source ranks, preferring the data shards so no decode is
	// needed on the healthy path.
	shardSize := (n + pool.K - 1) / pool.K
	type src struct{ rank, osd int }
	var srcs []src
	for rank := 0; rank < pool.K && len(srcs) < pool.K; rank++ {
		if o := acting[rank]; o != crush.ItemNone && c.OSDs[o].Up() {
			srcs = append(srcs, src{rank, o})
		}
	}
	needDecode := len(srcs) < pool.K
	for rank := pool.K; rank < pool.K+pool.M && len(srcs) < pool.K; rank++ {
		if o := acting[rank]; o != crush.ItemNone && c.OSDs[o].Up() {
			srcs = append(srcs, src{rank, o})
		}
	}
	if len(srcs) < pool.K {
		return nil, fmt.Errorf("rados: pg for %q has too few up shards", obj)
	}

	// Gather the k shards in parallel.
	gathered := make([][]byte, pool.K+pool.M)
	var comps []*sim.Completion
	for _, s := range srcs {
		s := s
		key := shardKey(obj, off, s.rank)
		comp := c.Eng.NewCompletion()
		comps = append(comps, comp)
		readShard := func() {
			oNode := c.NodeOf(s.osd)
			c.OSDs[s.osd].SubmitOpts(opts, OpRead, key, 0, nil, shardSize, func(r Result) {
				gathered[s.rank] = r.Data
				if s.osd == primary {
					comp.Complete(nil, r.Err)
					return
				}
				cl.fabric().Send(oNode, pNode, HdrBytes+shardSize, func() {
					comp.Complete(nil, r.Err)
				})
			})
		}
		if s.osd == primary {
			readShard()
		} else {
			cl.fabric().Send(pNode, c.NodeOf(s.osd), HdrBytes, readShard)
		}
	}
	for _, comp := range comps {
		if _, err := p.Await(comp); err != nil {
			return nil, err
		}
	}

	var out []byte
	if needDecode {
		if cl.Retry != nil && cl.Retry.Counters != nil {
			cl.Retry.Counters.DegradedReads++
		}
		h := cl.TraceSink.Begin(opts.Trace, "ec-decode")
		h.Link(trace.KindDegraded, 0)
		p.Sleep(cl.ECDecodeCost(n))
		h.End()
	}
	if cl.Functional {
		if needDecode {
			// Degraded read: rebuild only the missing data shards — Join
			// never touches parity, so recomputing it would be wasted work.
			if err := pool.Code.ReconstructData(gathered); err != nil {
				return nil, err
			}
		}
		out, err = pool.Code.Join(gathered, n)
		if err != nil {
			return nil, err
		}
	} else {
		out = zeroBytes(n)
	}
	cl.fabric().SendWait(p, pNode, cl.Host, HdrBytes+n)
	return out, nil
}

func zeroBytes(n int) []byte { return make([]byte, n) }
