// Package iouring models the Linux io_uring asynchronous I/O interface:
// submission/completion ring buffers shared between application and kernel,
// batched submission with a single enter call, and the two operating modes
// the stacks use (interrupt-driven and kernel-polled SQPOLL). DeLiBA-K uses
// kernel-polled mode with multiple rings pinned to CPU cores.
//
// The model preserves the protocol properties the paper's speedups come
// from — one syscall per batch instead of per I/O, lock-free
// single-producer rings — while charging explicit virtual-time costs for
// the syscalls and poll latency.
//
// Only what a stack submits is modelled: read and write SQEs on registered
// buffers (no copy is charged), each dispatched on its own, whose user
// data names the caller's own record of the I/O. Application-polled rings
// (IORING_SETUP_IOPOLL), unregistered-buffer copies, linked SQEs
// (IOSQE_IO_LINK), drain barriers (IOSQE_IO_DRAIN), the
// IORING_REGISTER_BUFFERS table and fsync/nop SQEs are not. Each is left
// for a change that adds a stack using it.
package iouring

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Op is an SQE opcode. Only the two ops the targets serve are modelled.
type Op uint8

const (
	// OpRead reads Len bytes at Off.
	OpRead Op = iota
	// OpWrite writes Len bytes at Off.
	OpWrite
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// SQE is a submission queue entry.
type SQE struct {
	Op  Op
	Off int64
	Len uint32
	// UserData is the caller's handle on its own record of the I/O,
	// returned in the CQE.
	UserData uint64
}

// CQE is a completion queue entry.
type CQE struct {
	UserData uint64
	// Res is the operation result: byte count, or negative errno-style code.
	Res int32
}

// Mode selects the ring's completion/submission discipline.
type Mode int

const (
	// InterruptMode completes via "interrupts": waiting costs a wakeup.
	InterruptMode Mode = iota
	// SQPollMode runs a kernel-side poller that drains the SQ without any
	// enter syscalls (IORING_SETUP_SQPOLL); DeLiBA-K's configuration.
	SQPollMode
)

func (m Mode) String() string {
	switch m {
	case InterruptMode:
		return "interrupt"
	case SQPollMode:
		return "sqpoll"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Target is the kernel object a ring submits to (the DMQ block layer, a
// legacy device, a test stub). Submit must eventually invoke complete
// exactly once with the operation result.
type Target interface {
	Submit(req Request, complete func(res int32))
}

// Request is the kernel-side view of an SQE in flight.
type Request struct {
	Op       Op
	Off      int64
	Len      uint32
	UserData uint64
	// CPU is the core this request was submitted from (set from the ring).
	CPU int
}

// Params configures a ring.
type Params struct {
	// Entries is the SQ depth (rounded up to a power of two, min 1).
	// The CQ is sized at 2x entries, as in Linux.
	Entries uint32
	Mode    Mode
	// CPU is the core the ring's submitter (and SQPOLL thread) is bound
	// to via sched_setaffinity; forwarded into each Request.
	CPU int
	// Costs; zero values take the defaults below.
	SyscallCost   sim.Duration // one io_uring_enter
	PerSQECost    sim.Duration // kernel per-SQE handling
	SQPollLatency sim.Duration // SQPOLL pickup delay after an SQE is queued
	WakeupCost    sim.Duration // interrupt-mode completion wakeup
}

// Default cost values (calibrated in internal/core/costmodel).
const (
	DefaultSyscallCost   = 1200 * sim.Nanosecond
	DefaultPerSQECost    = 250 * sim.Nanosecond
	DefaultSQPollLatency = 400 * sim.Nanosecond
	DefaultWakeupCost    = 1500 * sim.Nanosecond
)

func (p *Params) fillDefaults() {
	if p.Entries == 0 {
		p.Entries = 128
	}
	if p.SyscallCost == 0 {
		p.SyscallCost = DefaultSyscallCost
	}
	if p.PerSQECost == 0 {
		p.PerSQECost = DefaultPerSQECost
	}
	if p.SQPollLatency == 0 {
		p.SQPollLatency = DefaultSQPollLatency
	}
	if p.WakeupCost == 0 {
		p.WakeupCost = DefaultWakeupCost
	}
}

func nextPow2(v uint32) uint32 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	return v + 1
}

// ErrRingClosed is Enter's error on a closed ring.
var ErrRingClosed = errors.New("iouring: ring closed")

// Ring is one io_uring instance.
type Ring struct {
	eng    *sim.Engine
	params Params
	target Target

	// Submission ring: single producer (the app), consumed by Enter or
	// the SQPOLL poller.
	sqEntries []SQE
	sqHead    uint32
	sqTail    uint32
	sqMask    uint32

	// Completion ring. CQEs posted while it is full wait in cqBacklog, in
	// order, and move in as PeekCQE frees room (IORING_FEAT_NODROP).
	cqEntries []CQE
	cqHead    uint32
	cqTail    uint32
	cqMask    uint32
	cqBacklog []CQE

	// reaper, when set, consumes every CQE (see SetReaper); reapArmed
	// reports a drain scheduled or running, and wake/drain are its
	// events, bound on SetReaper.
	reaper    func(CQE)
	reapArmed bool
	wake      func()
	drain     func()

	pollerArmed bool
	// poll is the SQPOLL pickup, bound on first use.
	poll   func()
	closed bool

	// inflightFree recycles dispatched-SQE state (see inflight), and
	// enterFree the interrupt-mode enters in flight (see enterOp).
	inflightFree []*inflight
	enterFree    []*enterOp

	// Stats.
	enters      uint64
	submitted   uint64
	completed   uint64
	cqOverflow  uint64
	inFlight    int
	maxInFlight int
}

// Setup creates a ring bound to target (io_uring_setup).
func Setup(eng *sim.Engine, params Params, target Target) (*Ring, error) {
	if target == nil {
		return nil, errors.New("iouring: nil target")
	}
	params.fillDefaults()
	sqSize := nextPow2(params.Entries)
	cqSize := sqSize * 2
	return &Ring{
		eng:       eng,
		params:    params,
		target:    target,
		sqEntries: make([]SQE, sqSize),
		sqMask:    sqSize - 1,
		cqEntries: make([]CQE, cqSize),
		cqMask:    cqSize - 1,
	}, nil
}

// Params returns the effective parameters (after defaulting/rounding).
func (r *Ring) Params() Params { return r.params }

// SQSize returns the submission ring capacity.
func (r *Ring) SQSize() int { return len(r.sqEntries) }

// SQPending returns queued-but-unsubmitted SQEs.
func (r *Ring) SQPending() int { return int(r.sqTail - r.sqHead) }

// Stats returns cumulative counters: enter syscalls, submitted SQEs,
// completions reaped, CQ overflows, and the in-flight high-water mark.
func (r *Ring) Stats() (enters, submitted, completed, overflow uint64, maxInFlight int) {
	return r.enters, r.submitted, r.completed, r.cqOverflow, r.maxInFlight
}

// GetSQE reserves the next submission slot, or nil when the SQ is full.
// Fill the returned entry before calling Enter (or before the SQPOLL
// poller picks it up).
func (r *Ring) GetSQE() *SQE {
	if r.closed {
		return nil
	}
	if r.sqTail-r.sqHead >= uint32(len(r.sqEntries)) {
		return nil
	}
	sqe := &r.sqEntries[r.sqTail&r.sqMask]
	*sqe = SQE{}
	r.sqTail++
	if r.params.Mode == SQPollMode {
		r.armPoller()
	}
	return sqe
}

// SetReaper makes fn the ring's completion reaper: each posted CQE arms
// one drain event (unless one is already pending or running), which reaps
// every ready CQE and hands it to fn. The drain runs one Schedule(0) after
// the post (the reaping thread's wake-up); in interrupt mode it pays
// WakeupCost before reaping. The reaper is the ring's only way to reap
// besides PeekCQE.
func (r *Ring) SetReaper(fn func(CQE)) {
	r.reaper = fn
	r.wake = r.wakeReaper
	r.drain = r.drainCQ
}

// wakeReaper is the reaper's wake event.
func (r *Ring) wakeReaper() {
	if r.params.Mode == InterruptMode {
		r.eng.Schedule(r.params.WakeupCost, r.drain)
		return
	}
	r.drainCQ()
}

// drainCQ reaps every ready CQE, including ones the reaper's own callbacks
// post while it runs.
func (r *Ring) drainCQ() {
	for {
		cqe, ok := r.PeekCQE()
		if !ok {
			break
		}
		r.reaper(cqe)
	}
	r.reapArmed = false
}

// Close stops the ring; pending completions still drain but new
// submissions fail.
func (r *Ring) Close() { r.closed = true }

// Enter pushes all queued SQEs to the kernel (io_uring_enter with
// to_submit = pending) and calls then, if non-nil, once they have drained,
// inside the syscall's completion event. It must run in engine context. In
// SQPOLL mode there is no syscall (the poller owns submission), so Enter
// only reports what is pending; on a closed ring it fails with
// ErrRingClosed. In both cases, and with nothing pending, then runs before
// Enter returns. It reports the number of SQEs entered.
func (r *Ring) Enter(then func()) (int, error) {
	n, err := r.SQPending(), error(nil)
	switch {
	case r.closed:
		n, err = 0, ErrRingClosed
	case r.params.Mode != SQPollMode && n > 0:
		r.enter(n, then)
		return n, nil
	}
	if then != nil {
		then()
	}
	return n, err
}

// enter is io_uring_enter: the syscall and per-SQE costs elapse as one
// event, then n SQEs drain and then (if non-nil) runs.
func (r *Ring) enter(n int, then func()) {
	r.enters++
	var e *enterOp
	if k := len(r.enterFree); k > 0 {
		e = r.enterFree[k-1]
		r.enterFree = r.enterFree[:k-1]
	} else {
		e = &enterOp{r: r}
		e.fire = e.done
	}
	e.n, e.then = n, then
	r.eng.Schedule(r.params.SyscallCost+sim.Duration(n)*r.params.PerSQECost, e.fire)
}

// enterOp is one io_uring_enter in flight, pooled on its ring with its
// completion event bound once.
type enterOp struct {
	r    *Ring
	n    int
	then func()
	fire func()
}

// done is the enter's completion event: it returns the op to the pool
// (the drain may enter again), then drains n SQEs and runs then.
func (e *enterOp) done() {
	r, n, then := e.r, e.n, e.then
	e.then = nil
	r.enterFree = append(r.enterFree, e)
	r.drainSQ(n)
	if then != nil {
		then()
	}
}

// armPoller schedules an SQPOLL pickup if one is not already pending.
func (r *Ring) armPoller() {
	if r.pollerArmed {
		return
	}
	r.pollerArmed = true
	if r.poll == nil {
		r.poll = r.pollSQ
	}
	r.eng.Schedule(r.params.SQPollLatency, r.poll)
}

// pollSQ is the SQPOLL thread's pickup.
func (r *Ring) pollSQ() {
	r.pollerArmed = false
	if n := r.SQPending(); n > 0 {
		// The SQPOLL thread spends per-SQE kernel time but the app
		// thread is not blocked — that is the point of the mode.
		r.drainSQ(n)
	}
}

// drainSQ moves up to n SQEs from the ring into the target. Concurrent
// enters (several submitter threads, or an enter racing the SQPOLL thread)
// may have consumed entries between observing the count and draining, so
// the loop re-checks emptiness — as the kernel's consumer side does.
func (r *Ring) drainSQ(n int) {
	for consumed := 0; consumed < n && r.sqTail != r.sqHead; consumed++ {
		sqe := r.sqEntries[r.sqHead&r.sqMask]
		r.sqHead++
		r.submitted++
		r.dispatch(sqe)
	}
}

// dispatch hands one SQE to the target.
func (r *Ring) dispatch(sqe SQE) {
	r.inFlight++
	if r.inFlight > r.maxInFlight {
		r.maxInFlight = r.inFlight
	}
	f := r.getInflight()
	f.userData = sqe.UserData
	r.target.Submit(Request{Op: sqe.Op, Off: sqe.Off, Len: sqe.Len, UserData: sqe.UserData, CPU: r.params.CPU}, f.complete)
}

// inflight is one dispatched SQE awaiting its target's completion. The
// structs are recycled through the ring's freelist; their completion is
// bound once, so steady-state dispatch allocates nothing.
type inflight struct {
	r        *Ring
	userData uint64
	complete func(res int32)
}

func (r *Ring) getInflight() *inflight {
	if k := len(r.inflightFree); k > 0 {
		f := r.inflightFree[k-1]
		r.inflightFree[k-1] = nil
		r.inflightFree = r.inflightFree[:k-1]
		return f
	}
	f := &inflight{r: r}
	f.complete = f.completed
	return f
}

// completed recycles f and posts the CQE.
func (f *inflight) completed(res int32) {
	r, ud := f.r, f.userData
	r.inflightFree = append(r.inflightFree, f)
	r.inFlight--
	r.postCQE(CQE{UserData: ud, Res: res})
}

// postCQE appends a completion, or backlogs it when the CQ is full, and
// arms the reaper.
func (r *Ring) postCQE(cqe CQE) {
	if r.cqTail-r.cqHead >= uint32(len(r.cqEntries)) {
		r.cqOverflow++
		r.cqBacklog = append(r.cqBacklog, cqe)
	} else {
		r.cqEntries[r.cqTail&r.cqMask] = cqe
		r.cqTail++
	}
	if r.reaper != nil && !r.reapArmed {
		r.reapArmed = true
		r.eng.Schedule(0, r.wake)
	}
}

// PeekCQE reaps one completion without blocking (kernel-polled read of the
// shared CQ; no syscall).
func (r *Ring) PeekCQE() (CQE, bool) {
	if r.cqTail == r.cqHead {
		return CQE{}, false
	}
	cqe := r.cqEntries[r.cqHead&r.cqMask]
	r.cqHead++
	r.completed++
	if len(r.cqBacklog) > 0 {
		r.cqEntries[r.cqTail&r.cqMask] = r.cqBacklog[0]
		r.cqTail++
		r.cqBacklog = r.cqBacklog[:copy(r.cqBacklog, r.cqBacklog[1:])]
	}
	return cqe, true
}
