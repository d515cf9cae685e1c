package core

import (
	"repro/internal/blockmq"
	"repro/internal/iouring"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uifd"
)

// This file is the card data path below the io_uring rings: the DMQ ring
// target that hands a request to blk-mq, and the card backend's pipeline
// (placement kernel, card FSM, RS encoder, fan-out) that UIFD runs once the
// request is on the card. Like the software path (swpath.go), each request
// is a cardOp — a pooled struct whose callbacks are bound once — walking
// its owner's stage machine, and each stage issues exactly the Schedule
// calls the closures it replaces did, in the same order:
//
//   - a delay that was Schedule(d, fn) is Schedule(d, step);
//   - the card backend's "run now if the delay is zero" stays inline;
//   - every callback (blk-mq, the placement kernel, the RS encoder, the
//     fan-out engine, the cache tier) continues the chain inside the event
//     that calls it, as the closure did.
//
// A request spanning several backing objects runs one cardOp per extent,
// joined by a parent cardOp that reports the first error once all are in.

// cardOp is one request, or one extent of a request, in flight on the card
// path.
type cardOp struct {
	chain cardChain
	free  *[]*cardOp
	eng   *sim.Engine
	stage uint8

	op      OpType
	pattern Pattern
	off     int64
	n       int
	flags   uint32
	cpu     int
	tenant  int
	tr      trace.Ref
	ext     rbd.Extent
	// Exactly one of done (card backend) and complete (ring target) is
	// set, unless parent is: then the extent reports to it.
	done     func(error)
	complete func(res int32)
	parent   *cardOp
	// remaining and firstErr are a parent's join state.
	remaining int
	firstErr  error

	err        error
	penalty    sim.Duration
	needDecode bool
	// hk is the kernel span, hp the card-pipeline span, hs the stage span
	// open now (crush-select, rs-encode, ec-reconstruct, lsvd-cache).
	hk, hp, hs trace.H

	// Bound once per struct.
	step    func()
	errDone func(error)
	selDone func(sim.Duration, error)
	ecDone  func(bool, error)
}

// cardChain is an owner of cardOps: it runs an op's stages from o.stage
// until the op has to wait, and finishes it at the end.
type cardChain interface {
	advance(o *cardOp)
}

// newCardOp takes an op from free, or builds one bound to chain.
func newCardOp(free *[]*cardOp, eng *sim.Engine, chain cardChain) *cardOp {
	if k := len(*free); k > 0 {
		o := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return o
	}
	o := &cardOp{chain: chain, free: free, eng: eng}
	o.step = o.advance
	o.errDone = o.called
	o.selDone = o.selected
	o.ecDone = o.gathered
	return o
}

func (o *cardOp) advance() { o.chain.advance(o) }

func (o *cardOp) called(err error) {
	o.err = err
	o.chain.advance(o)
}

func (o *cardOp) selected(penalty sim.Duration, err error) {
	o.penalty = penalty
	o.called(err)
}

func (o *cardOp) gathered(needDecode bool, err error) {
	o.needDecode = needDecode
	o.called(err)
}

// recycle returns o to its free list.
func (o *cardOp) recycle() {
	*o = cardOp{chain: o.chain, free: o.free, eng: o.eng, step: o.step, errDone: o.errDone,
		selDone: o.selDone, ecDone: o.ecDone}
	*o.free = append(*o.free, o)
}

// fromRing fills the op from a ring request.
func (o *cardOp) fromRing(req iouring.Request, complete func(int32)) {
	o.op, o.pattern = Read, Seq
	if req.Op == iouring.OpWrite {
		o.op = Write
	}
	if req.RWFlags&blockmq.FlagRandom != 0 {
		o.pattern = Rand
	}
	o.off, o.n, o.flags, o.cpu, o.tenant = req.Off, int(req.Len), req.RWFlags, req.CPU, req.Tenant
	o.tr, o.complete = req.Trace, complete
}

// respond recycles a ring target's op, then posts its result (recycling
// first: the completion may submit the next request).
func (o *cardOp) respond() {
	complete, n, err := o.complete, o.n, o.err
	o.recycle()
	if err != nil {
		complete(iouring.ResEIO)
		return
	}
	complete(int32(n))
}

// --- DMQ ring target ---------------------------------------------------------

// dmqTarget adapts io_uring requests into the DMQ block layer: the UIFD
// RBD driver's offset→object mapping cost is charged, then the request
// enters blk-mq (bypass) toward the card. Write-path card overhead
// (descriptor + doorbell + durability aggregation) rides on the request.
type dmqTarget struct {
	eng        *sim.Engine
	mq         *blockmq.MQ
	mapCost    sim.Duration
	writeExtra sim.Duration
	trace      *trace.Sink
	// bare skips the kernel span and RBD map cost: the cacheTarget
	// wrapping this target already charged them once above the cache.
	bare bool
	free []*cardOp
}

// DMQ target stages.
const (
	dmqSubmit uint8 = iota // request event: enter blk-mq
	dmqDone                // blk-mq completed the request
)

func (t *dmqTarget) Submit(req iouring.Request, complete func(res int32)) {
	o := newCardOp(&t.free, t.eng, t)
	o.fromRing(req, complete)
	delay := sim.Duration(0)
	if o.op == Write {
		delay = t.writeExtra
	}
	if !t.bare {
		delay += t.mapCost
		if t.trace != nil && o.tr.Sampled() {
			// The kernel span contains the whole below-ring residency;
			// blk-mq and the card pipeline nest under it.
			o.hk = t.trace.Begin(o.tr, "kernel")
			o.tr = o.hk.Ref()
		}
	}
	o.stage = dmqSubmit
	t.eng.Schedule(delay, o.step)
}

func (t *dmqTarget) advance(o *cardOp) {
	switch o.stage {
	case dmqSubmit:
		op := blockmq.OpRead
		if o.op == Write {
			op = blockmq.OpWrite
		}
		o.stage = dmqDone
		t.mq.SubmitAsyncTenant(op, o.off, o.n, o.flags, o.cpu, o.tenant, o.tr, o.errDone)
	case dmqDone:
		o.hk.End()
		o.respond()
	}
}

// --- card backend --------------------------------------------------------------

// Card backend stages, per extent.
const (
	cbSelected uint8 = iota // the placement kernel answered
	cbIssue                 // card FSM slot done: encode or fan out
	cbEncoded               // RS encode done (EC write)
	cbECWrite               // HLS encode penalty paid: shard fan-out
	cbECRead                // EC gather done
	cbRebuilt               // degraded-read reconstruct done
	cbFanned                // replicated fan-out done
)

// Process implements uifd.CardBackend (the DeLiBA-K entry point).
func (cb *cardBackend) Process(req uifd.CardRequest, done func(err error)) {
	op := Read
	if req.Op == blockmq.OpWrite {
		op = Write
	}
	pattern := Seq
	if req.Flags&blockmq.FlagRandom != 0 {
		pattern = Rand
	}
	cb.process(op, pattern, req.Off, req.Len, req.Tenant, req.Trace, done)
}

// process runs the card pipeline for one block I/O, one cardOp per
// backing-object extent, all started before process returns. It is also
// called directly by the DeLiBA-2 stack, which reaches the card via its
// legacy DMA path instead of UIFD/QDMA.
func (cb *cardBackend) process(op OpType, pattern Pattern, off int64, n, tenant int, tr trace.Ref, done func(error)) {
	if err := cb.image.CheckRange(off, n); err != nil {
		cb.eng.Schedule(0, func() { done(err) })
		return
	}
	var parent *cardOp
	if ob := int64(cb.image.ObjectBytes); n > 0 && (off+int64(n)-1)/ob != off/ob {
		// [off, off+n) spans one extent per backing object it touches.
		parent = newCardOp(&cb.free, cb.eng, cb)
		parent.remaining = int((off+int64(n)-1)/ob - off/ob + 1)
		parent.done = done
	}
	for n > 0 {
		o := newCardOp(&cb.free, cb.eng, cb)
		o.op, o.pattern, o.tenant, o.tr, o.parent = op, pattern, tenant, tr, parent
		if parent == nil {
			o.done = done
		}
		o.ext = cb.image.ExtentAt(off, n)
		off += int64(o.ext.Len)
		n -= o.ext.Len
		cb.startExtent(o)
	}
}

// startExtent opens the extent's spans and hands its PG to the placement
// layer's CRUSH kernel (stage ④), which computes the placement on the card
// and returns its generation's kernel penalty.
func (cb *cardBackend) startExtent(o *cardOp) {
	if cb.trace != nil && o.tr.Sampled() {
		// The card-pipeline span contains placement, encode and fan-out;
		// re-parent so those nest under it.
		o.hp = cb.trace.Begin(o.tr, "card-pipeline")
		o.tr = o.hp.Ref()
	}
	pg := cb.fan.Cluster.PGOf(cb.pool, o.ext.Object)
	if cb.trace != nil && o.tr.Sampled() {
		o.hs = cb.trace.Begin(o.tr, "crush-select")
	}
	o.stage = cbSelected
	cb.place.Select(cb.pool, pg, o.selDone)
}

func (cb *cardBackend) advance(o *cardOp) {
	for {
		switch o.stage {
		case cbSelected:
			o.hs.End()
			if o.err != nil {
				cb.extentDone(o)
				return
			}
			// The kernel selects on the same input as Cluster.ActingSet,
			// so its answer is the acting set the Fanout then looks up in
			// the cluster's placement cache; the accelerator charge above
			// is the hardware time for computing it.
			o.stage = cbIssue
			if d := o.penalty + cb.reservePipe(cb.procCost); d > 0 {
				cb.eng.Schedule(d, o.step)
				return
			}
		case cbIssue:
			e := o.ext
			opts := rados.ReqOpts{Random: o.pattern == Rand, Tenant: o.tenant, Trace: o.tr}
			switch {
			case o.op == Write && cb.pool.Kind == rados.ECPool:
				// Stage ④ continued: RS encode on the card, then shard
				// fan-out over the card NIC (stage ⑥).
				if cb.trace != nil && o.tr.Sampled() {
					o.hs = cb.trace.Begin(o.tr, "rs-encode")
				}
				o.stage = cbEncoded
				cb.shell.RS.Encode(e.Len, nil, o.errDone)
			case o.op == Write:
				o.stage = cbFanned
				cb.fan.WriteReplicatedR(cb.pool, e.Object, e.Off, e.Len, opts, o.errDone)
			case cb.pool.Kind == rados.ECPool:
				o.stage = cbECRead
				cb.fan.ReadECR(cb.pool, e.Object, e.Off, e.Len, opts, o.ecDone)
			default:
				o.stage = cbFanned
				cb.fan.ReadReplicatedR(cb.pool, e.Object, e.Off, e.Len, opts, o.errDone)
			}
			return
		case cbEncoded:
			o.hs.End()
			if o.err != nil {
				cb.extentDone(o)
				return
			}
			o.stage = cbECWrite
			if d := cb.hlsExtra(cb.shell.RS.Spec, 1); d > 0 {
				cb.eng.Schedule(d, o.step)
				return
			}
		case cbECWrite:
			o.stage = cbFanned
			e := o.ext
			cb.fan.WriteECR(cb.pool, e.Object, e.Off, e.Len,
				rados.ReqOpts{Random: o.pattern == Rand, Tenant: o.tenant, Trace: o.tr}, o.errDone)
			return
		case cbECRead:
			if o.err != nil || !o.needDecode {
				cb.extentDone(o)
				return
			}
			// Degraded read: reconstruct on the card.
			if cb.trace != nil && o.tr.Sampled() {
				o.hs = cb.trace.Begin(o.tr, "ec-reconstruct")
				o.hs.Link(trace.KindDegraded, 0)
			}
			o.stage = cbRebuilt
			cb.shell.RS.Encode(o.ext.Len, nil, o.errDone)
			return
		case cbRebuilt:
			o.hs.End()
			cb.extentDone(o)
			return
		case cbFanned:
			cb.extentDone(o)
			return
		}
	}
}

// extentDone closes the extent's card-pipeline span, recycles it, and
// reports its result to the request's caller or join.
func (cb *cardBackend) extentDone(o *cardOp) {
	o.hp.End()
	parent, done, err := o.parent, o.done, o.err
	o.recycle()
	if parent != nil {
		parent.joined(err)
		return
	}
	done(err)
}

// joined accounts one extent's result on a multi-extent request: the last
// one recycles the parent and reports the first error seen.
func (p *cardOp) joined(err error) {
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	p.remaining--
	if p.remaining == 0 {
		done, ferr := p.done, p.firstErr
		p.recycle()
		done(ferr)
	}
}
