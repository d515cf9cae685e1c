package core

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/raft"
	"repro/internal/trace"
)

// Fanout issues object operations from a client-side endpoint directly to
// the acting OSDs — the DeLiBA protocol. Unlike the software Ceph baseline
// (rados.Client), there is no primary-copy hop: the client (host CPU for
// DeLiBA-1, FPGA card for DeLiBA-2/-K) replicates or shards itself and
// talks to every OSD in parallel.
//
// The issue paths are allocation-free in steady state: per-operation state
// lives in pooled op structs whose callback closures are bound once at
// construction, acting-set filtering reuses a scratch slice, and EC shard
// keys are built with the rados append-style builders. Like the engine it
// feeds, a Fanout is single-threaded; its freelists and scratch buffers
// are unsynchronised on purpose.
type Fanout struct {
	Cluster *rados.Cluster
	From    *netsim.Host
	// Res, when non-nil, runs the resilient entry points (the *R methods
	// in resilience.go) under its deadlines, retries and read failover.
	Res *rados.RetryPolicy
	// Trace, when non-nil, records a per-target span (issue → ack) for
	// sampled ops, so the critical path can name the slowest replica/shard.
	Trace *trace.Sink
	// Raft, when non-nil, routes replicated I/O for its pool through the
	// per-PG Raft backend (repl-raft) instead of the primary-copy fan-out;
	// other pools and EC stripes keep the paths below.
	Raft *raft.Router

	up        []int // scratch: up members (or EC source ranks) of an acting set
	opFree    []*fanOp
	tgtFree   []*fanTarget
	retryFree []*fanRetry
	keyBuf    []byte   // scratch: an EC stripe's shard keys, end to end
	keys      []string // scratch: the shard keys, sliced from one string
}

// --- pooled op and target --------------------------------------------

// fanOp is the in-flight state of one fan-out operation: a replicated write
// to every up replica, a primary read, or an EC stripe write or read with
// one target per shard. It completes when the last target's ack returns.
type fanOp struct {
	f          *Fanout
	opts       rados.ReqOpts
	remaining  int
	needDecode bool
	firstErr   error
	done       func(error)
	ecDone     func(needDecode bool, err error) // EC reads report needDecode
}

// fanTarget is one OSD destination of a fanOp: write n bytes at off of the
// object key (a replica's object name or an EC shard key), or read them.
// The request carries HdrBytes plus n on writes, the reply HdrBytes plus n
// on reads. send fires on fabric arrival at the OSD's node, onResult when
// the OSD completes, ack when the reply hops back to the client; the three
// are bound to the target once, and targets are pooled on the Fanout, so
// reissue costs no allocation.
type fanTarget struct {
	op     *fanOp
	write  bool
	key    string
	off, n int
	osd    int
	node   *netsim.Host
	err    error
	span   trace.H

	send     func()
	onResult func(rados.Result)
	ack      func()
}

func (f *Fanout) getOp(opts rados.ReqOpts, remaining int) *fanOp {
	var op *fanOp
	if n := len(f.opFree); n > 0 {
		op = f.opFree[n-1]
		f.opFree[n-1] = nil
		f.opFree = f.opFree[:n-1]
	} else {
		op = &fanOp{f: f}
	}
	op.opts, op.remaining, op.needDecode, op.firstErr = opts, remaining, false, nil
	return op
}

func (f *Fanout) getTarget() *fanTarget {
	if n := len(f.tgtFree); n > 0 {
		t := f.tgtFree[n-1]
		f.tgtFree[n-1] = nil
		f.tgtFree = f.tgtFree[:n-1]
		return t
	}
	t := &fanTarget{}
	t.send = func() {
		o := t.op
		sopts := o.opts
		if t.span.On() {
			sopts.Trace = t.span.Ref()
		}
		if t.write {
			o.f.Cluster.OSDs[t.osd].SubmitOpts(sopts, rados.OpWrite, t.key, t.off, rados.Zeros(t.n), 0, t.onResult)
		} else {
			o.f.Cluster.OSDs[t.osd].SubmitOpts(sopts, rados.OpRead, t.key, t.off, nil, t.n, t.onResult)
		}
	}
	t.onResult = func(r rados.Result) {
		t.err = r.Err
		reply := rados.HdrBytes
		if !t.write {
			reply += t.n
		}
		t.op.f.Cluster.Fabric.Send(t.node, t.op.f.From, reply, t.ack)
	}
	t.ack = func() {
		t.span.End()
		op, err := t.op, t.err
		t.key = ""
		op.f.tgtFree = append(op.f.tgtFree, t)
		op.finish(err)
	}
	return t
}

// issue sends target t of op to osd; the caller has set t.key.
func (f *Fanout) issue(op *fanOp, t *fanTarget, osd int, write bool, off, n int, span string) {
	t.op, t.write, t.off, t.n = op, write, off, n
	t.osd, t.node, t.err = osd, f.Cluster.NodeOf(osd), nil
	t.span = trace.H{}
	if f.Trace != nil && op.opts.Trace.Sampled() {
		t.span = f.Trace.Begin(op.opts.Trace, span)
	}
	out := rados.HdrBytes
	if write {
		out += n
	}
	f.Cluster.Fabric.Send(f.From, t.node, out, t.send)
}

// finish accounts one completed target; the last one recycles the op and
// then invokes done (in that order — done may immediately issue a new op
// that reuses this struct).
func (op *fanOp) finish(err error) {
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.remaining--
	if op.remaining > 0 {
		return
	}
	done, ecDone, ferr, nd := op.done, op.ecDone, op.firstErr, op.needDecode
	op.done, op.ecDone = nil, nil
	op.f.opFree = append(op.f.opFree, op)
	if ecDone != nil {
		ecDone(nd, ferr)
		return
	}
	done(ferr)
}

// upSet filters the acting set's up members into the scratch slice.
func (f *Fanout) upSet(acting []int) []int {
	c := f.Cluster
	f.up = f.up[:0]
	for _, o := range acting {
		if o != crush.ItemNone && c.OSDs[o].Up() {
			f.up = append(f.up, o)
		}
	}
	return f.up
}

// --- replicated --------------------------------------------------------

// WriteReplicated sends n bytes to every up member of the object's acting
// set in parallel and completes when all acks return. pg is
// Cluster.PGOf(pool, obj), which the caller already has from placement.
// With repl-raft selected the write is instead routed to the object's
// Raft group and completes when the entry commits on a majority.
func (f *Fanout) WriteReplicated(pool *rados.Pool, pg uint32, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Raft != nil && pool == f.Raft.Sys.Pool {
		f.Raft.Write(obj, off, n, opts, done)
		return
	}
	acting, err := f.Cluster.ActingSet(pool, pg)
	if err != nil {
		done(err)
		return
	}
	up := f.upSet(acting)
	if len(up) == 0 {
		done(fmt.Errorf("core: pg for %q has no up replicas", obj))
		return
	}
	op := f.getOp(opts, len(up))
	op.done = done
	for _, o := range up {
		t := f.getTarget()
		t.key = obj
		f.issue(op, t, o, true, off, n, "replica-write")
	}
}

// ReadReplicated fetches n bytes from the acting primary of the object's
// placement group pg — or, with repl-raft selected, from the group leader
// under its lease.
func (f *Fanout) ReadReplicated(pool *rados.Pool, pg uint32, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	f.readReplicatedShift(pool, pg, obj, off, n, opts, 0, done)
}

// readReplicatedShift is ReadReplicated reading from the (shift mod up)-th
// up member of the acting set instead of the primary, the failover path for
// retry attempt `shift`.
func (f *Fanout) readReplicatedShift(pool *rados.Pool, pg uint32, obj string, off, n int, opts rados.ReqOpts, shift int, done func(error)) {
	if f.Raft != nil && pool == f.Raft.Sys.Pool {
		// repl-raft: the router rotates targets itself when the leader hint
		// goes stale; replica-shift failover belongs to primary-copy.
		f.Raft.Read(obj, off, n, opts, done)
		return
	}
	acting, err := f.Cluster.ActingSet(pool, pg)
	if err != nil {
		done(err)
		return
	}
	up := f.upSet(acting)
	if len(up) == 0 {
		done(fmt.Errorf("core: pg for %q has no up replicas", obj))
		return
	}
	osd := up[shift%len(up)]
	if shift > 0 && osd != up[0] {
		f.Res.Counters.Failovers++
		if f.Trace != nil {
			f.Trace.Mark(opts.Trace, "replica-failover", trace.KindFailover, 0)
		}
	}
	op := f.getOp(opts, 1)
	op.done = done
	t := f.getTarget()
	t.key = obj
	f.issue(op, t, osd, false, off, n, "replica-read")
}

// --- EC ----------------------------------------------------------------

// WriteEC sends one shard of size ceil(n/k) to each up acting rank in
// parallel (the client has already erasure-encoded the stripe).
func (f *Fanout) WriteEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	c := f.Cluster
	if pool.Kind != rados.ECPool {
		done(fmt.Errorf("core: WriteEC on non-EC pool %q", pool.Name))
		return
	}
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	shardSize := (n + pool.K - 1) / pool.K
	upCount := 0
	for _, o := range acting {
		if o != crush.ItemNone && c.OSDs[o].Up() {
			upCount++
		}
	}
	if upCount < pool.K {
		done(fmt.Errorf("core: pg for %q has %d up shards, need >= %d", obj, upCount, pool.K))
		return
	}
	op := f.getOp(opts, upCount)
	op.done = done
	keys := f.shardKeys(obj, off, len(acting))
	for rank, o := range acting {
		if o == crush.ItemNone || !c.OSDs[o].Up() {
			continue
		}
		t := f.getTarget()
		t.key = keys[rank]
		f.issue(op, t, o, true, 0, shardSize, "ec-shard-write")
	}
}

// ReadEC gathers k shards in parallel (data ranks preferred) and completes
// when the slowest arrives. needDecode is reported so the caller can charge
// reconstruction when parity shards were needed.
func (f *Fanout) ReadEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(needDecode bool, err error)) {
	c := f.Cluster
	if pool.Kind != rados.ECPool {
		done(false, fmt.Errorf("core: ReadEC on non-EC pool %q", pool.Name))
		return
	}
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(false, err)
		return
	}
	// Choose k source ranks, preferring the data shards so no decode is
	// needed on the healthy path.
	srcs := f.up[:0]
	for rank := 0; rank < pool.K+pool.M && len(srcs) < pool.K; rank++ {
		if o := acting[rank]; o != crush.ItemNone && c.OSDs[o].Up() {
			srcs = append(srcs, rank)
		}
	}
	f.up = srcs
	needDecode := len(srcs) < pool.K || srcs[pool.K-1] >= pool.K
	if len(srcs) < pool.K {
		done(needDecode, fmt.Errorf("core: pg for %q has too few up shards", obj))
		return
	}
	op := f.getOp(opts, len(srcs))
	op.needDecode, op.ecDone = needDecode, done
	shardSize := (n + pool.K - 1) / pool.K
	keys := f.shardKeys(obj, off, len(acting))
	for _, rank := range srcs {
		t := f.getTarget()
		t.key = keys[rank]
		f.issue(op, t, acting[rank], false, 0, shardSize, "ec-shard-read")
	}
}

// shardKeys returns the shard keys of ranks 0..width-1 of the EC stripe at
// (obj, off). They are slices of one string, so an issue allocates once
// for its keys however many shards it touches. The returned slice is
// scratch that the next call overwrites; issue never calls back before
// returning, so the caller's loop reads it whole.
func (f *Fanout) shardKeys(obj string, off, width int) []string {
	buf := f.keyBuf[:0]
	ends := make([]int, 0, 16)
	for rank := 0; rank < width; rank++ {
		buf = rados.AppendShardKey(buf, obj, off, rank)
		ends = append(ends, len(buf))
	}
	f.keyBuf = buf
	all := string(buf)
	keys := f.keys[:0]
	start := 0
	for _, end := range ends {
		keys = append(keys, all[start:end])
		start = end
	}
	f.keys = keys
	return keys
}
