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

// Pattern is the access pattern of an I/O, carried to the drive model.
type Pattern int

const (
	// Sequential marks sequential access.
	Sequential Pattern = iota
	// Random marks random access.
	Random
)

func (p Pattern) String() string {
	if p == Sequential {
		return "seq"
	}
	return "rand"
}

// IO is one block I/O from submission to completion, the model's bio: the
// stack fills it once at submit, and every layer below reads it (a ring
// slot's user data, a blk-mq request's IO, a data path op) rather than
// keeping its own copy. Layers that open spans keep their child trace refs
// in their own ops; the record holds only the root.
type IO struct {
	Op      OpType
	Pattern Pattern
	Off     int64
	Len     int
	// CPU is the core the I/O was submitted from.
	CPU int
	// Tenant owns the I/O (0 = untenanted): QoS schedulers account it and
	// UIFD maps it onto an SR-IOV function's queue sets.
	Tenant int
	// Trace is the I/O's root trace context (zero when unsampled), and
	// Span its root span, which Complete ends.
	Trace trace.Ref
	Span  trace.H
	// Done receives the I/O's result.
	Done func(err error)

	pool *IOPool
}

// IOPool recycles I/O records; the zero value is ready to use.
type IOPool struct{ free []*IO }

// Get returns a zeroed record that Complete gives back to p.
func (p *IOPool) Get() *IO {
	if k := len(p.free); k > 0 {
		io := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return io
	}
	return &IO{pool: p}
}

// Complete ends the I/O: it closes the root span, returns the record to
// its pool (Done may submit the next I/O on it) and reports err to Done.
func (io *IO) Complete(err error) {
	done := io.Done
	io.Span.End()
	if p := io.pool; p != nil {
		*io = IO{pool: p}
		p.free = append(p.free, io)
	}
	done(err)
}

// Request is a block I/O request in flight through the MQ layer. It keeps
// its own op and range, which a merge changes, and points at the record
// of the I/O it was submitted for (a merged request's other records stay
// with their own callbacks).
type Request struct {
	Op  OpType
	Off int64
	Len int
	// CPU is the submitting core; it selects the software queue and, via
	// the queue map, the hardware context.
	CPU int
	// IO is the record of the I/O this request was submitted for.
	IO *IO
	// Tag is the hardware tag, assigned at dispatch (-1 before).
	Tag int
	// Trace is the trace context handed to the driver: the blk-mq span
	// when sampled, under the parent passed to Submit.
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
	fireFn, placeFn func()
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
	*r = Request{home: r.home, callbacks: r.callbacks[:0], fireFn: r.fireFn, placeFn: r.placeFn}
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
