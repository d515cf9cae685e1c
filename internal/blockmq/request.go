// Package blockmq models the Linux multi-queue block layer (blk-mq): tag
// sets, per-CPU software queues, hardware queue contexts mapped onto a
// driver, request merging, and pluggable schedulers. DeLiBA-K's "DMQ" layer
// is this machinery with the scheduler bypassed and requests issued directly
// to the hardware context aligned with the submitting CPU core (paper
// optimization ②).
package blockmq

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OpType is the request direction.
type OpType int

const (
	// OpRead transfers device-to-host.
	OpRead OpType = iota
	// OpWrite transfers host-to-device.
	OpWrite
)

func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Request flags (a small subset of the kernel's REQ_* hints).
const (
	// FlagRandom hints that the request belongs to a random access
	// pattern (inverse of REQ_RAHEAD-style sequential hints).
	FlagRandom uint32 = 1 << 0
)

// Request is a block I/O request in flight through the MQ layer.
type Request struct {
	Op  OpType
	Off int64
	Len int
	// Flags carries access-pattern hints to the driver.
	Flags uint32
	// CPU is the submitting core; it selects the software queue and, via
	// the queue map, the hardware context.
	CPU int
	// Tenant identifies the owning tenant (0 = untenanted). QoS schedulers
	// account tokens and tags per tenant, and tenant-aware drivers use it
	// to select SR-IOV functions and queue sets.
	Tenant int
	// Tag is the hardware tag, assigned at dispatch (-1 before).
	Tag int
	// Trace is the per-I/O trace context handed to the driver (re-parented
	// under the blk-mq span when sampled). It must be set at submit time
	// (via SubmitAsyncTenant) because the bypass fast path can issue to
	// the driver synchronously, before the caller sees the request.
	Trace trace.Ref

	// mq is the owning MQ while the request is live, nil once it has
	// ended (EndIO panics on a second call); home owns its pool slot.
	mq        *MQ
	home      *MQ
	traceH    trace.H
	hctx      int
	submitted sim.Time
	started   sim.Time
	// callbacks fire on completion; merged requests carry several.
	callbacks []func(err error)
	merged    int // number of bios merged into this request
	// err and fired carry the completion across the callback events.
	err   error
	fired int
	// Events bound once per pooled request.
	fireFn, placeFn, issueFn func()
}

// Bytes returns the request payload size.
func (r *Request) Bytes() int { return r.Len }

// MergedBios returns how many originally separate requests this request
// carries (1 if never merged).
func (r *Request) MergedBios() int { return 1 + r.merged }

// EndIO completes the request: the driver calls this exactly once when the
// hardware finishes. It releases the tag, fires all completion callbacks,
// and restarts dispatch on the hardware context. The request returns to
// its MQ's pool once its last callback has run; the driver must not touch
// it after EndIO.
func (r *Request) EndIO(err error) {
	mq := r.mq
	if mq == nil {
		panic("blockmq: EndIO on request not owned by an MQ")
	}
	r.mq = nil
	mq.stats.Completed++
	// Close the blk-mq span: the queue-wait portion is submit-to-issue
	// (tag wait + dispatch), the rest is device service time.
	if r.traceH.On() {
		wait := r.started.Sub(r.submitted)
		if r.started == 0 {
			wait = 0 // completed without ever issuing (error path)
		}
		r.traceH.SetWait(wait)
		r.traceH.End()
		r.traceH = trace.H{}
	}
	// One event per callback, then the dispatch re-kick. The callback
	// events run back to back in schedule order, so each fires the next
	// callback; the last recycles the request before calling out.
	r.err, r.fired = err, 0
	for range r.callbacks {
		mq.eng.Schedule(0, r.fireFn)
	}
	mq.tags[r.hctx].free(r.Tag)
	// Freeing a tag may unblock queued dispatch.
	mq.eng.Schedule(0, mq.kick[r.hctx])
	if len(r.callbacks) == 0 {
		mq.recycle(r)
	}
}

// fire runs the request's next completion callback.
func (r *Request) fire() {
	cb, err := r.callbacks[r.fired], r.err
	r.fired++
	if r.fired == len(r.callbacks) {
		r.home.recycle(r)
	}
	cb(err)
}

// recycle returns an ended (or merged-away) request to the pool.
func (mq *MQ) recycle(r *Request) {
	clear(r.callbacks)
	*r = Request{home: r.home, callbacks: r.callbacks[:0],
		fireFn: r.fireFn, placeFn: r.placeFn, issueFn: r.issueFn}
	mq.free = append(mq.free, r)
}

func (r *Request) String() string {
	return fmt.Sprintf("%v off=%d len=%d cpu=%d tag=%d", r.Op, r.Off, r.Len, r.CPU, r.Tag)
}

// tagSet is a per-hctx tag allocator (free list).
type tagSet struct {
	free_ []int
}

func newTagSet(n int) *tagSet {
	t := &tagSet{free_: make([]int, n)}
	for i := range t.free_ {
		t.free_[i] = n - 1 - i // pop from the back → ascending tags
	}
	return t
}

func (t *tagSet) alloc() (int, bool) {
	if len(t.free_) == 0 {
		return -1, false
	}
	tag := t.free_[len(t.free_)-1]
	t.free_ = t.free_[:len(t.free_)-1]
	return tag, true
}

func (t *tagSet) free(tag int) {
	t.free_ = append(t.free_, tag)
}

func (t *tagSet) available() int { return len(t.free_) }
