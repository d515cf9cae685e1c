package rados

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the client's request chains. Each request is an op: a
// pooled struct whose step is bound once and re-scheduled for every wait,
// walking a per-protocol stage machine. Every wait has a fixed event
// shape, which the golden digests pin:
//
//   - a delay d, including 0, is Schedule(d, step);
//   - a message wait is the fabric arrival plus one Schedule(0) hop (see
//     sendWait);
//   - a sub-operation the chain parks on is one Schedule(0) hop when it
//     completes, and one that completed before the chain parked is no
//     event at all (see resume and gather);
//   - under a retry policy each attempt is its own op, started one
//     Schedule(0) after the policy issues it, and its completion is one
//     Schedule(0) hop back to the policy (see Issue and deliver).
//
// Event order is a digest input, so none of these may be merged or
// skipped, even where the wait is zero.

// opKind selects an op's chain.
type opKind uint8

const (
	kindWriteRepl  opKind = iota // primary-copy replicated write
	kindReadRepl                 // read from one replica (primary unless failing over)
	kindWriteEC                  // erasure-coded stripe write via the primary
	kindReadEC                   // erasure-coded read, decoding when degraded
	kindReplWrite                // write through the pluggable replication protocol
	kindReplRead                 // read through the pluggable replication protocol
	kindWriteSplit               // replicated write on a split-domain deployment
	kindReadSplit                // primary read on a split-domain deployment
)

// stageHop is the stage of a finished attempt whose completion hop to the
// retry policy is scheduled.
const stageHop = 0xff

// op is one client request in flight. Fields above the chain state are the
// request's arguments; the rest is per-chain scratch, reset on recycle
// except for the bound callbacks and the reusable slices.
type op struct {
	cl    *Client
	eng   *sim.Engine
	kind  opKind
	stage uint8
	write bool

	pool  *Pool
	obj   string
	off   int
	n     int
	data  []byte
	opts  ReqOpts
	shift int // read failover rotation: the attempt number under retry

	writeDone func(error)
	readDone  func([]byte, error)
	// parent is the op an attempt op tries, and attempt the policy's
	// token for it (both nil at top level).
	parent  *op
	attempt *Attempt

	// parked: the chain waits for a sub-operation's callback; ready: the
	// callback already ran, before the chain got to park (see resume).
	parked, ready bool
	// orphaned: sub-requests still in flight reference the op after it
	// finished, so it goes to the GC instead of the freelist.
	orphaned bool

	acting   []int // shared with the placement memo: read-only
	up       []int // scratch: up members of acting
	primary  int
	first    int // split write: index of the primary in acting
	placed   int // split write: placed members of acting
	pNode    *netsim.Host
	targets  []*target
	live     int // targets in use
	awaitIdx int // next target gather awaits
	firstErr error
	res      []byte
	err      error

	// Erasure coding.
	shardSize  int
	needDecode bool
	gathered   [][]byte
	decode     trace.H

	// Split domain: the OSD-side ack count.
	remaining int

	// Bound once per struct.
	step        func()
	arrived     func()
	onOSD       func(Result)
	onRepl      func(error)
	splitArrive func()
	splitDone   func()
}

// target is one OSD an op fans out to: a replica, an EC shard, or a split
// write's primary or follower. Its callbacks are bound once.
type target struct {
	op    *op
	osd   int
	node  *netsim.Host
	local bool // the primary itself: no fabric hop to or from it
	rank  int
	key   string
	shard []byte // functional EC write payload

	fired, waiting bool
	err            error

	send     func() // at the target's node: submit to its OSD
	onResult func(Result)
	ack      func() // the ack is back at the primary
}

func (cl *Client) getOp() *op {
	if k := len(cl.free); k > 0 {
		o := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		return o
	}
	o := &op{cl: cl, eng: cl.eng()}
	o.step = o.advance
	o.arrived = o.hop
	o.onOSD = o.osdResult
	o.onRepl = o.replResult
	o.splitArrive = o.splitAtPrimary
	o.splitDone = o.resume
	return o
}

// recycle clears a finished op and returns it to the client's freelist.
func (o *op) recycle() {
	if o.orphaned {
		return
	}
	cl := o.cl
	*o = op{
		cl: cl, eng: o.eng, up: o.up[:0], targets: o.targets, gathered: o.gathered[:0],
		step: o.step, arrived: o.arrived, onOSD: o.onOSD, onRepl: o.onRepl,
		splitArrive: o.splitArrive, splitDone: o.splitDone,
	}
	cl.free = append(cl.free, o)
}

// finish ends the chain. A top-level op recycles itself and then calls done
// (in that order: done may issue a request that reuses the struct); an
// attempt op instead hops back to the retry policy.
func (o *op) finish(res []byte, err error) {
	if o.parent != nil {
		o.res, o.err = res, err
		o.stage = stageHop
		o.eng.Schedule(0, o.step)
		return
	}
	wd, rd := o.writeDone, o.readDone
	o.recycle()
	if wd != nil {
		wd(err)
	} else {
		rd(res, err)
	}
}

// hop resumes the chain one Schedule(0) later.
func (o *op) hop() { o.eng.Schedule(0, o.step) }

// resume is the completion callback of a sub-operation the chain waits on.
// If the chain already parked on it, that is one hop; if the callback runs
// before the chain parks (the sub-operation completed synchronously), the
// chain continues inline, with no event.
func (o *op) resume() {
	if o.parked {
		o.parked = false
		o.hop()
		return
	}
	o.ready = true
}

// park reports whether the chain must stop and wait for resume.
func (o *op) park() bool {
	if o.ready {
		o.ready = false
		return false
	}
	o.parked = true
	return true
}

// sleep continues the chain at stage next after d.
func (o *op) sleep(d sim.Duration, next uint8) {
	o.stage = next
	o.eng.Schedule(d, o.step)
}

// sendWait sends n bytes from src to dst; the chain continues at stage
// next one hop after the message is processed at dst.
func (o *op) sendWait(src, dst *netsim.Host, n int, next uint8) {
	o.stage = next
	o.cl.fabric().Send(src, dst, n, o.arrived)
}

// placementCost charges the client's CRUSH time as a Sleep when it is
// nonzero, reporting whether the chain must wait.
func (o *op) placementCost(next uint8) bool {
	o.stage = next
	if d := o.cl.PlacementCost; d > 0 {
		o.eng.Schedule(d, o.step)
		return true
	}
	return false
}

func (o *op) osdResult(r Result) {
	if o.kind == kindReadSplit {
		o.splitReadResult(r)
		return
	}
	o.res, o.err = r.Data, r.Err
	o.resume()
}

func (o *op) replResult(err error) {
	o.err = err
	o.resume()
}

// advance runs the op's chain from its current stage until it has to wait.
func (o *op) advance() {
	if o.stage == stageHop {
		o.deliver()
		return
	}
	switch o.kind {
	case kindWriteRepl:
		o.writeReplicated()
	case kindReadRepl:
		o.readReplicated()
	case kindWriteEC:
		o.writeEC()
	case kindReadEC:
		o.readEC()
	case kindReplWrite, kindReplRead:
		o.replicate()
	case kindWriteSplit, kindReadSplit:
		o.split()
	}
}

// --- fan-out targets -----------------------------------------------------

// addTarget takes the next pooled target for osd.
func (o *op) addTarget(osd int, local bool) *target {
	if o.live == len(o.targets) {
		t := &target{op: o}
		t.send = t.submit
		t.onResult = t.result
		t.ack = t.acked
		o.targets = append(o.targets, t)
	}
	t := o.targets[o.live]
	o.live++
	t.osd, t.node, t.local = osd, o.cl.Cluster.NodeOf(osd), local
	t.rank, t.key, t.shard = 0, "", nil
	t.fired, t.waiting, t.err = false, false, nil
	return t
}

// issue starts the target's request: in place at the primary, or after
// the primary→target message with n bytes.
func (t *target) issue(n int) {
	if t.local {
		t.submit()
		return
	}
	t.op.cl.fabric().Send(t.op.pNode, t.node, n, t.send)
}

// submit hands the target's request to its OSD.
func (t *target) submit() {
	o := t.op
	osd := o.cl.Cluster.OSDs[t.osd]
	switch o.kind {
	case kindWriteEC:
		d := t.shard
		if !o.cl.Functional {
			d = Zeros(o.shardSize)
		}
		osd.SubmitOpts(o.opts, OpWrite, t.key, 0, d, 0, t.onResult)
	case kindReadEC:
		osd.SubmitOpts(o.opts, OpRead, t.key, 0, nil, o.shardSize, t.onResult)
	default:
		osd.SubmitOpts(o.opts, OpWrite, o.obj, o.off, o.data, 0, t.onResult)
	}
}

// result takes the OSD's answer; a remote target acks back to the primary.
func (t *target) result(r Result) {
	o := t.op
	ackBytes := HdrBytes
	if o.kind == kindReadEC {
		o.gathered[t.rank] = r.Data
		ackBytes += o.shardSize
	}
	if t.local {
		t.done(r.Err)
		return
	}
	t.err = r.Err
	o.cl.fabric().Send(t.node, o.pNode, ackBytes, t.ack)
}

func (t *target) acked() { t.done(t.err) }

// done completes the target: a split write counts it at the primary; any
// other op resumes if its gather is waiting on exactly this target.
func (t *target) done(err error) {
	o := t.op
	if o.kind == kindWriteSplit {
		o.ackOne(err)
		return
	}
	t.fired, t.err = true, err
	if t.waiting {
		t.waiting = false
		o.hop()
	}
}

// gather awaits the live targets in issue order: the chain parks on the
// first unfired target and one hop after it fires re-checks the rest, so
// targets that fired in the meantime cost no event. With stopOnErr it
// returns at the first failed target. It reports whether the chain may continue; the first
// error seen is in firstErr.
func (o *op) gather(stopOnErr bool) bool {
	for o.awaitIdx < o.live {
		t := o.targets[o.awaitIdx]
		if !t.fired {
			t.waiting = true
			return false
		}
		o.awaitIdx++
		if t.err != nil && o.firstErr == nil {
			o.firstErr = t.err
			if stopOnErr {
				return true
			}
		}
	}
	return true
}

// --- primary-copy replication --------------------------------------------

// writeReplicated: the primary writes locally and replicates to the other
// up members in parallel; each follower acks the primary, which acks the
// client once all have.
func (o *op) writeReplicated() {
	c := o.cl.Cluster
	for {
		switch o.stage {
		case 0:
			acting, err := c.ActingSet(o.pool, c.PGOf(o.pool, o.obj))
			if err != nil {
				o.finish(nil, err)
				return
			}
			for _, x := range acting {
				if x != crush.ItemNone && c.OSDs[x].Up() {
					o.up = append(o.up, x)
				}
			}
			if len(o.up) == 0 {
				o.finish(nil, fmt.Errorf("rados: pg for %q has no up replicas", o.obj))
				return
			}
			if o.placementCost(1) {
				return
			}
		case 1:
			o.primary = o.up[0]
			o.pNode = c.NodeOf(o.primary)
			o.sendWait(o.cl.Host, o.pNode, HdrBytes+o.n, 2)
			return
		case 2:
			o.addTarget(o.primary, true).issue(0)
			for _, x := range o.up[1:] {
				o.addTarget(x, false).issue(HdrBytes + o.n)
			}
			o.stage = 3
		case 3:
			if !o.gather(false) {
				return
			}
			o.sendWait(o.pNode, o.cl.Host, HdrBytes, 4)
			return
		case 4:
			o.finish(nil, o.firstErr)
			return
		}
	}
}

// readReplicated reads from one replica. shift rotates the source among the
// up members of the acting set (retry attempt k reads from the k-th up
// replica, mod the up count) so failed primaries fail over instead of being
// re-asked forever; shift 0 is the plain primary read.
func (o *op) readReplicated() {
	c := o.cl.Cluster
	for {
		switch o.stage {
		case 0:
			acting, err := c.ActingSet(o.pool, c.PGOf(o.pool, o.obj))
			if err != nil {
				o.finish(nil, err)
				return
			}
			primary, ok := c.PrimaryFor(acting)
			if !ok {
				o.finish(nil, fmt.Errorf("rados: pg for %q has no up replicas", o.obj))
				return
			}
			if o.shift > 0 {
				for _, x := range acting {
					if x != crush.ItemNone && c.OSDs[x].Up() {
						o.up = append(o.up, x)
					}
				}
				if x := o.up[o.shift%len(o.up)]; x != primary {
					primary = x
					o.failover()
				}
			}
			o.primary = primary
			if o.placementCost(1) {
				return
			}
		case 1:
			o.pNode = c.NodeOf(o.primary)
			o.sendWait(o.cl.Host, o.pNode, HdrBytes, 2)
			return
		case 2:
			o.stage = 3
			c.OSDs[o.primary].SubmitOpts(o.opts, OpRead, o.obj, o.off, nil, o.n, o.onOSD)
			if o.park() {
				return
			}
		case 3:
			if o.err != nil {
				o.finish(nil, o.err)
				return
			}
			o.sendWait(o.pNode, o.cl.Host, HdrBytes+o.n, 4)
			return
		case 4:
			o.finish(o.res, nil)
			return
		}
	}
}

// failover counts a read served by a non-primary replica and marks it on
// the trace: this attempt reads elsewhere because earlier attempts failed.
func (o *op) failover() {
	cl := o.cl
	if cl.Retry != nil {
		cl.Retry.Counters.Failovers++
	}
	if cl.TraceSink != nil && o.opts.Trace.Sampled() {
		cl.TraceSink.Emit(o.opts.Trace, "replica-failover",
			o.eng.Now(), 0, 0, trace.KindFailover, 0)
	}
}

// --- erasure coding ------------------------------------------------------

// writeEC: the primary encodes, then distributes shards to the acting
// ranks, skipping unreachable ones (a degraded write).
func (o *op) writeEC() {
	cl, c := o.cl, o.cl.Cluster
	for {
		switch o.stage {
		case 0:
			acting, err := c.ActingSet(o.pool, c.PGOf(o.pool, o.obj))
			if err != nil {
				o.finish(nil, err)
				return
			}
			upCount := 0
			for _, x := range acting {
				if x != crush.ItemNone && c.OSDs[x].Up() {
					upCount++
				}
			}
			if upCount < o.pool.K {
				o.finish(nil, fmt.Errorf("rados: pg for %q has %d up shards, need >= %d", o.obj, upCount, o.pool.K))
				return
			}
			o.acting = acting
			o.primary, _ = c.PrimaryFor(acting)
			if o.placementCost(1) {
				return
			}
		case 1:
			o.pNode = c.NodeOf(o.primary)
			o.sendWait(cl.Host, o.pNode, HdrBytes+o.n, 2)
			return
		case 2:
			o.sleep(cl.ECEncodeCost(o.n), 3)
			return
		case 3:
			o.shardSize = (o.n + o.pool.K - 1) / o.pool.K
			var shards [][]byte
			if cl.Functional {
				shards = o.pool.Code.Split(o.data)
				if err := o.pool.Code.Encode(shards); err != nil {
					o.finish(nil, err)
					return
				}
			}
			for rank, x := range o.acting {
				if x == crush.ItemNone || !c.OSDs[x].Up() {
					continue
				}
				t := o.addTarget(x, x == o.primary)
				t.key = shardKey(o.obj, o.off, rank)
				if cl.Functional {
					t.shard = shards[rank]
				}
				t.issue(HdrBytes + o.shardSize)
			}
			o.stage = 4
		case 4:
			if !o.gather(false) {
				return
			}
			o.sendWait(o.pNode, cl.Host, HdrBytes, 5)
			return
		case 5:
			o.finish(nil, o.firstErr)
			return
		}
	}
}

// readEC gathers k shards through the primary, preferring the data shards
// so no decode is needed on the healthy path.
func (o *op) readEC() {
	cl, c, pool := o.cl, o.cl.Cluster, o.pool
	for {
		switch o.stage {
		case 0:
			acting, err := c.ActingSet(pool, c.PGOf(pool, o.obj))
			if err != nil {
				o.finish(nil, err)
				return
			}
			primary, ok := c.PrimaryFor(acting)
			if !ok {
				o.finish(nil, fmt.Errorf("rados: pg for %q has no up shards", o.obj))
				return
			}
			o.acting, o.primary = acting, primary
			if o.placementCost(1) {
				return
			}
		case 1:
			o.pNode = c.NodeOf(o.primary)
			o.sendWait(cl.Host, o.pNode, HdrBytes, 2)
			return
		case 2:
			o.shardSize = (o.n + pool.K - 1) / pool.K
			// Source ranks: data shards first, parity only to make up k.
			for rank := 0; rank < pool.K && len(o.up) < pool.K; rank++ {
				if x := o.acting[rank]; x != crush.ItemNone && c.OSDs[x].Up() {
					o.up = append(o.up, rank)
				}
			}
			o.needDecode = len(o.up) < pool.K
			for rank := pool.K; rank < pool.K+pool.M && len(o.up) < pool.K; rank++ {
				if x := o.acting[rank]; x != crush.ItemNone && c.OSDs[x].Up() {
					o.up = append(o.up, rank)
				}
			}
			if len(o.up) < pool.K {
				o.finish(nil, fmt.Errorf("rados: pg for %q has too few up shards", o.obj))
				return
			}
			if w := pool.K + pool.M; cap(o.gathered) < w {
				o.gathered = make([][]byte, w)
			} else {
				o.gathered = o.gathered[:w]
				clear(o.gathered)
			}
			for _, rank := range o.up {
				x := o.acting[rank]
				t := o.addTarget(x, x == o.primary)
				t.rank = rank
				t.key = shardKey(o.obj, o.off, rank)
				t.issue(HdrBytes)
			}
			o.stage = 3
		case 3:
			if !o.gather(true) {
				return
			}
			if o.firstErr != nil {
				// The other shard reads still land in this op.
				o.orphaned = o.awaitIdx < o.live
				o.finish(nil, o.firstErr)
				return
			}
			if o.needDecode {
				if cl.Retry != nil {
					cl.Retry.Counters.DegradedReads++
				}
				o.decode = cl.TraceSink.Begin(o.opts.Trace, "ec-decode")
				o.decode.Link(trace.KindDegraded, 0)
				o.sleep(cl.ECDecodeCost(o.n), 4)
				return
			}
			o.stage = 4
		case 4:
			o.decode.End()
			out, err := o.assemble()
			if err != nil {
				o.finish(nil, err)
				return
			}
			o.res = out
			o.sendWait(o.pNode, cl.Host, HdrBytes+o.n, 5)
			return
		case 5:
			o.finish(o.res, nil)
			return
		}
	}
}

// assemble joins the gathered shards into the read's payload, rebuilding
// missing data shards on a degraded read (Join never touches parity, so
// recomputing it would be wasted work).
func (o *op) assemble() ([]byte, error) {
	if !o.cl.Functional {
		return Zeros(o.n), nil
	}
	if o.needDecode {
		if err := o.pool.Code.ReconstructData(o.gathered); err != nil {
			return nil, err
		}
	}
	return o.pool.Code.Join(o.gathered, o.n)
}

// --- pluggable replication protocol --------------------------------------

// replicate routes the request through cl.Repl. Placement is still charged
// here — the protocol router computes PG placement just like the
// primary-copy path. The protocol layer is a timing/availability model
// over synthetic payloads, so a read hands back zeros.
func (o *op) replicate() {
	for {
		switch o.stage {
		case 0:
			if o.placementCost(1) {
				return
			}
		case 1:
			o.stage = 2
			if o.write {
				o.cl.Repl.Write(o.obj, o.off, o.n, o.opts, o.onRepl)
			} else {
				o.cl.Repl.Read(o.obj, o.off, o.n, o.opts, o.onRepl)
			}
			if o.park() {
				return
			}
		case 2:
			if o.write || o.err != nil {
				o.finish(nil, o.err)
				return
			}
			o.finish(Zeros(o.n), nil)
			return
		}
	}
}

// --- split domain ----------------------------------------------------------

// split runs the client-shard half of a split-domain request. Every piece
// of OSD-side work runs inside fabric arrivals on the OSD shard
// (splitAtPrimary); follower acks are counted at the primary rather than
// awaited as client-side completions, and the client resumes once, one hop
// after the final primary→client message arrives back on its own shard.
// Fault injection is rejected in split mode, so the acting set is taken as
// healthy (no up/down filtering — reading OSD state from the host shard
// would cross the domain boundary).
func (o *op) split() {
	c := o.cl.Cluster
	for {
		switch o.stage {
		case 0:
			acting, err := o.cl.splitActing(o.pool, o.obj)
			if err != nil {
				o.finish(nil, err)
				return
			}
			// acting is shared with the placement memo: find the primary
			// (first placed member) and count the placed members without
			// filtering the slice in place.
			o.first, o.placed = -1, 0
			for i, x := range acting {
				if x != crush.ItemNone {
					if o.first < 0 {
						o.first = i
					}
					o.placed++
				}
			}
			if o.placed == 0 {
				o.finish(nil, fmt.Errorf("rados: pg for %q has no placed replicas", o.obj))
				return
			}
			o.acting, o.primary = acting, acting[o.first]
			if o.placementCost(1) {
				return
			}
		case 1:
			o.pNode = c.NodeOf(o.primary)
			n := HdrBytes
			if o.write {
				n += o.n
			}
			o.stage, o.parked = 2, true
			o.cl.fabric().Send(o.cl.Host, o.pNode, n, o.splitArrive)
			return
		case 2:
			if o.err != nil {
				o.finish(nil, o.err)
				return
			}
			o.finish(o.res, nil)
			return
		}
	}
}

// splitAtPrimary runs at the request's arrival on the primary's shard, so
// the OSD work it starts reads the primary node's own domain clock.
func (o *op) splitAtPrimary() {
	c := o.cl.Cluster
	if !o.write {
		c.OSDs[o.primary].SubmitOpts(o.opts, OpRead, o.obj, o.off, nil, o.n, o.onOSD)
		return
	}
	o.remaining, o.firstErr = o.placed, nil
	o.addTarget(o.primary, true).issue(0)
	for _, x := range o.acting[o.first+1:] {
		if x != crush.ItemNone {
			o.addTarget(x, false).issue(HdrBytes + o.n)
		}
	}
}

// ackOne counts one replica's ack at the primary; the last one sends the
// client its answer.
func (o *op) ackOne(err error) {
	if err != nil && o.firstErr == nil {
		o.firstErr = err
	}
	if o.remaining--; o.remaining == 0 {
		o.err = o.firstErr
		o.cl.fabric().Send(o.pNode, o.cl.Host, HdrBytes, o.splitDone)
	}
}

// splitReadResult hands the primary's answer back to the client's shard,
// with the payload inside the response message.
func (o *op) splitReadResult(r Result) {
	n := HdrBytes
	if r.Err != nil {
		o.err = r.Err
	} else {
		o.res = r.Data
		n += o.n
	}
	o.cl.fabric().Send(o.pNode, o.cl.Host, n, o.splitDone)
}

// --- retry -----------------------------------------------------------------

// run starts a top-level op: under the client's retry policy when it has
// one, else straight down its chain.
func (o *op) run() {
	if cl := o.cl; cl.Retry != nil && !cl.Split {
		cl.Retry.Run(o, o.write, cl.TraceSink, "rados-attempt", o.opts.Trace)
		return
	}
	o.advance()
}

// Issue starts attempt try of the op as an op of its own, one event later.
// A deadline can abandon the attempt op: it keeps running to completion
// (the cluster may still apply the op), but nobody observes its result —
// the same semantics as a timed-out RPC. A replicated read's attempt try
// reads from the try-th up replica (see readReplicated).
func (o *op) Issue(a *Attempt, try int, tr trace.Ref) {
	c := o.cl.getOp()
	c.kind, c.write, c.parent, c.attempt, c.shift = o.kind, o.write, o, a, try
	c.pool, c.obj, c.off, c.n, c.data, c.opts = o.pool, o.obj, o.off, o.n, o.data, o.opts
	// Children of the attempt (OSD service spans, failover markers)
	// parent under the attempt span so the critical path can descend
	// attempt → osd-service; unsampled ops pass the zero Ref through.
	c.opts.Trace = tr
	o.eng.Schedule(0, c.step)
}

// Finish ends a top-level op with the retry policy's result.
func (o *op) Finish(_ bool, err error) { o.finish(o.res, err) }

// deliver is a finished attempt op's completion hop: the op it tries takes
// its data only if the policy still observes the attempt.
func (o *op) deliver() {
	a, res, err := o.attempt, o.res, o.err
	if a.run != nil {
		o.parent.res = res
	}
	o.recycle()
	a.Done(err)
}
