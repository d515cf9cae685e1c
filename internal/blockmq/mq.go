package blockmq

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Driver is the device side of the MQ layer (UIFD, a null device, a legacy
// single-queue device). QueueRq starts a request on hardware context hctx
// and returns false when the device cannot accept it right now (the MQ layer
// will hold it and retry after a completion).
type Driver interface {
	QueueRq(hctx int, req *Request) bool
}

// Config sizes the MQ instance.
type Config struct {
	// CPUs is the number of submitting cores (software queues).
	CPUs int
	// HWQueues is the number of hardware contexts.
	HWQueues int
	// TagsPerHW is the tag-set depth per hardware context.
	TagsPerHW int
	// Scheduler stages requests; nil means no elevator at all.
	Scheduler Scheduler
	// Bypass issues requests directly to the driver from submit context
	// when possible (DeLiBA-K's DMQ). Requires Scheduler == nil.
	Bypass bool
	// InsertCost is the block-layer CPU charge per request (plug, tag,
	// accounting).
	InsertCost sim.Duration
	// DispatchCost is charged when a request moves to the driver.
	DispatchCost sim.Duration
}

// Stats counts MQ-layer events.
type Stats struct {
	Submitted  uint64
	Completed  uint64
	Dispatched uint64
	DirectHits uint64 // bypass fast-path issues
	Requeues   uint64 // driver-busy requeues
	SchedPass  uint64 // requests that went through the scheduler
}

// MQ is a multi-queue block device queue: CPUs software queues mapped onto
// HWQueues hardware contexts over a shared driver.
type MQ struct {
	eng    *sim.Engine
	cfg    Config
	driver Driver
	tags   []*tagSet
	stats  Stats
	// waiting holds requests that have a reserved place but no tag yet,
	// per hctx, FIFO.
	waiting [][]*Request
	// armed is the earliest pending throttle re-kick per hctx (0 = none);
	// it dedups the timers a throttling scheduler's ReadyAt arms so a
	// backlog of N requests does not schedule N wakeups.
	armed []sim.Time
	// trace receives one "blk-mq" span per sampled request, opened at
	// submit and closed at EndIO (nil = tracing off).
	trace *trace.Sink
	// kick[h] runs hctx h's dispatch loop, bound once per hctx.
	kick []func()
	// free recycles completed requests (see Request.EndIO).
	free []*Request
}

// SetTraceSink wires the MQ's span sink; pass nil to disable.
func (mq *MQ) SetTraceSink(s *trace.Sink) { mq.trace = s }

// New builds an MQ instance over the driver.
func New(eng *sim.Engine, cfg Config, driver Driver) (*MQ, error) {
	if cfg.CPUs <= 0 || cfg.HWQueues <= 0 || cfg.TagsPerHW <= 0 {
		return nil, fmt.Errorf("blockmq: bad config %+v", cfg)
	}
	if driver == nil {
		return nil, fmt.Errorf("blockmq: nil driver")
	}
	if cfg.Bypass && cfg.Scheduler != nil {
		return nil, fmt.Errorf("blockmq: bypass requires no scheduler")
	}
	mq := &MQ{
		eng:     eng,
		cfg:     cfg,
		driver:  driver,
		waiting: make([][]*Request, cfg.HWQueues),
		armed:   make([]sim.Time, cfg.HWQueues),
	}
	for i := 0; i < cfg.HWQueues; i++ {
		mq.tags = append(mq.tags, newTagSet(cfg.TagsPerHW))
		h := i
		mq.kick = append(mq.kick, func() { mq.runHW(h) })
	}
	return mq, nil
}

// HCtxFor maps a submitting CPU to its hardware context (the per-core
// alignment the paper relies on: with HWQueues >= CPUs the mapping is 1:1).
func (mq *MQ) HCtxFor(cpu int) int {
	if cpu < 0 {
		cpu = -cpu
	}
	return cpu % mq.cfg.HWQueues
}

// Stats returns a copy of the counters.
func (mq *MQ) Stats() Stats { return mq.stats }

// TagsAvailable reports free tags on a hardware context.
func (mq *MQ) TagsAvailable(hctx int) int { return mq.tags[hctx].available() }

// Submit sends a request into the block layer from proc context. The
// returned request has been queued (or directly issued); its callback fires
// at completion. The caller supplies the completion callback. Requests are
// pooled: the returned pointer is the caller's to inspect only until the
// request completes or is merged into another.
func (mq *MQ) Submit(p *sim.Proc, op OpType, off int64, length int, cpu int, done func(err error)) *Request {
	req := mq.newRequest(op, off, length, 0, cpu, done)
	if cost := mq.pathCost(); cost > 0 {
		p.Sleep(cost)
	}
	mq.place(req)
	return req
}

// SubmitAsync is Submit from event context (e.g. an io_uring SQPOLL drain):
// the layer's CPU cost is applied as scheduling delay instead of a proc
// sleep. flags carries request hints.
func (mq *MQ) SubmitAsync(op OpType, off int64, length int, flags uint32, cpu int, done func(err error)) *Request {
	return mq.SubmitAsyncTraced(op, off, length, flags, cpu, trace.Ref{}, done)
}

// SubmitAsyncTraced is SubmitAsync carrying a per-I/O trace context. The
// context is a parameter rather than a field the caller sets afterwards
// because the bypass fast path can reach the driver synchronously inside
// this call — the request must already carry it when place() runs.
func (mq *MQ) SubmitAsyncTraced(op OpType, off int64, length int, flags uint32, cpu int, tr trace.Ref, done func(err error)) *Request {
	return mq.SubmitAsyncTenant(op, off, length, flags, cpu, 0, tr, done)
}

// SubmitAsyncTenant is SubmitAsyncTraced for an I/O owned by a tenant: the
// identity rides the request into the scheduler (per-tenant QoS accounting)
// and the driver (SR-IOV function / queue-set selection). Tenant 0 is the
// untenanted default and leaves the request path identical to
// SubmitAsyncTraced.
func (mq *MQ) SubmitAsyncTenant(op OpType, off int64, length int, flags uint32, cpu, tenant int, tr trace.Ref, done func(err error)) *Request {
	req := mq.newRequest(op, off, length, flags, cpu, done)
	req.Tenant = tenant
	req.Trace = tr
	if mq.trace != nil && tr.Sampled() {
		// Open the blk-mq span now and re-parent the carried context under
		// it, so driver/card spans nest inside the block layer's.
		req.traceH = mq.trace.Begin(tr, "blk-mq")
		req.Trace = req.traceH.Ref()
	}
	if cost := mq.pathCost(); cost > 0 {
		mq.eng.Schedule(cost, req.placeFn)
	} else {
		mq.place(req)
	}
	return req
}

// newRequest takes a request from the pool (or builds one, binding its
// events once) and fills it.
func (mq *MQ) newRequest(op OpType, off int64, length int, flags uint32, cpu int, done func(err error)) *Request {
	var req *Request
	if k := len(mq.free); k > 0 {
		req = mq.free[k-1]
		mq.free[k-1] = nil
		mq.free = mq.free[:k-1]
	} else {
		req = &Request{home: mq}
		req.fireFn = req.fire
		req.placeFn = func() { mq.place(req) }
		req.issueFn = func() { mq.tryIssue(req) }
	}
	req.Op, req.Off, req.Len, req.Flags, req.CPU, req.Tag = op, off, length, flags, cpu, -1
	req.mq, req.submitted = mq, mq.eng.Now()
	if done != nil {
		req.callbacks = append(req.callbacks, done)
	}
	req.hctx = mq.HCtxFor(cpu)
	mq.stats.Submitted++
	return req
}

// pathCost is the block-layer CPU charge on the submit path.
func (mq *MQ) pathCost() sim.Duration {
	cost := mq.cfg.InsertCost
	if mq.cfg.Scheduler != nil {
		cost += mq.cfg.Scheduler.Cost()
	}
	return cost
}

// place stages or directly issues a prepared request.
func (mq *MQ) place(req *Request) {
	switch {
	case mq.cfg.Bypass:
		// DMQ fast path: try to issue directly from submit context.
		if tag, ok := mq.tags[req.hctx].alloc(); ok && len(mq.waiting[req.hctx]) == 0 {
			req.Tag = tag
			if mq.issue(req) {
				mq.stats.DirectHits++
				return
			}
			// Device busy: fall back to the queued path.
			mq.tags[req.hctx].free(tag)
			req.Tag = -1
		} else if ok {
			// Keep FIFO fairness: someone is already waiting.
			mq.tags[req.hctx].free(tag)
		}
		mq.waiting[req.hctx] = append(mq.waiting[req.hctx], req)

	case mq.cfg.Scheduler != nil:
		mq.stats.SchedPass++
		if merged := mq.cfg.Scheduler.Insert(req.hctx, req); merged {
			// The carrier request took this one's callbacks and will
			// complete them; this one has no events left.
			mq.recycle(req)
			return
		}

	default:
		mq.waiting[req.hctx] = append(mq.waiting[req.hctx], req)
	}
	mq.eng.Schedule(0, mq.kick[req.hctx])
}

// runHW drives the dispatch loop of one hardware context: pull from the
// scheduler or waiting list while tags and device slots are available.
func (mq *MQ) runHW(hctx int) {
	for {
		// Take a tag first: popping the scheduler without one would strand
		// requests outside the scheduler and forfeit merge opportunities.
		tag, ok := mq.tags[hctx].alloc()
		if !ok {
			return // a completion will re-kick us
		}
		var req *Request
		if len(mq.waiting[hctx]) > 0 {
			req = mq.waiting[hctx][0]
			mq.waiting[hctx] = mq.waiting[hctx][1:]
		} else if mq.cfg.Scheduler != nil {
			req = mq.cfg.Scheduler.Next(hctx)
		}
		if req == nil {
			mq.tags[hctx].free(tag)
			// A throttling scheduler may be holding staged requests until
			// tokens or tags mature; arm a deterministic wakeup for the
			// earliest of them (completions would otherwise be the only
			// re-kick, and an idle device never completes anything).
			mq.armThrottle(hctx)
			return
		}
		req.Tag = tag
		if mq.cfg.DispatchCost > 0 {
			// Model the issue-path CPU time, then hand to the driver.
			mq.eng.Schedule(mq.cfg.DispatchCost, req.issueFn)
			continue
		}
		if !mq.issue(req) {
			mq.requeue(req)
			return
		}
	}
}

// tryIssue is the deferred-dispatch entry: issue or requeue.
func (mq *MQ) tryIssue(req *Request) {
	if !mq.issue(req) {
		mq.requeue(req)
	}
}

// requeue puts a driver-rejected request back at the head of its hctx.
func (mq *MQ) requeue(req *Request) {
	mq.tags[req.hctx].free(req.Tag)
	req.Tag = -1
	mq.waiting[req.hctx] = append([]*Request{req}, mq.waiting[req.hctx]...)
	mq.stats.Requeues++
}

// issue hands the request to the driver.
func (mq *MQ) issue(req *Request) bool {
	req.started = mq.eng.Now()
	if !mq.driver.QueueRq(req.hctx, req) {
		return false
	}
	mq.stats.Dispatched++
	return true
}

// armThrottle schedules a dispatch retry at the moment a throttling
// scheduler says its earliest staged request for hctx becomes eligible.
// Timers dedup on the armed slot: a wakeup is only added when it is earlier
// than the one already pending, so the event count stays bounded by the
// number of distinct ready instants rather than the backlog size.
func (mq *MQ) armThrottle(hctx int) {
	ts, ok := mq.cfg.Scheduler.(ThrottledScheduler)
	if !ok {
		return
	}
	at, ok := ts.ReadyAt(hctx)
	if !ok {
		return
	}
	if now := mq.eng.Now(); at <= now {
		at = now.Add(sim.Nanosecond)
	}
	if mq.armed[hctx] != 0 && mq.armed[hctx] <= at {
		return
	}
	mq.armed[hctx] = at
	mq.eng.At(at, func() {
		if mq.armed[hctx] == at {
			mq.armed[hctx] = 0
		}
		mq.runHW(hctx)
	})
}

// Kick restarts dispatch on all hardware contexts (used by drivers whose
// busy condition cleared).
func (mq *MQ) Kick() {
	for h := 0; h < mq.cfg.HWQueues; h++ {
		mq.eng.Schedule(0, mq.kick[h])
	}
}
