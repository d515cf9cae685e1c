// Package iouring models the Linux io_uring asynchronous I/O interface:
// submission/completion ring buffers shared between application and kernel,
// batched submission with a single enter call, and the three operating modes
// (interrupt-driven, application-polled, kernel-polled SQPOLL). DeLiBA-K
// uses kernel-polled mode with multiple rings pinned to CPU cores.
//
// The model preserves the protocol properties the paper's speedups come
// from — one syscall per batch instead of per I/O, no intermediate copies
// with registered buffers, lock-free single-producer rings — while charging
// explicit virtual-time costs for the syscalls, copies, and poll latency.
package iouring

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Op is an SQE opcode. Only the block-I/O subset DeLiBA-K uses is modelled.
type Op uint8

const (
	// OpNop completes immediately in the kernel.
	OpNop Op = iota
	// OpRead reads Len bytes at Off.
	OpRead
	// OpWrite writes Len bytes at Off.
	OpWrite
	// OpFsync flushes the target device.
	OpFsync
)

func (o Op) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFsync:
		return "fsync"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// SQE flags (the IOSQE_* subset the model supports).
const (
	// FlagIOLink chains this SQE to the next one: the next starts only
	// after this completes, and a failure cancels the rest of the chain
	// (IOSQE_IO_LINK).
	FlagIOLink uint8 = 1 << 0
	// FlagIODrain delays this SQE until every previously submitted
	// operation has completed (IOSQE_IO_DRAIN).
	FlagIODrain uint8 = 1 << 1
)

// ECanceled is the CQE result for a chain-cancelled operation (-ECANCELED).
const ECanceled int32 = -125

// SQE is a submission queue entry.
type SQE struct {
	Op  Op
	FD  int32
	Off int64
	Len uint32
	// BufIndex selects a registered buffer (-1 = unregistered, pays copy).
	BufIndex int32
	// Flags holds IOSQE_* submission flags (FlagIOLink, FlagIODrain).
	Flags uint8
	// RWFlags carries per-op hints (blockmq.FlagRandom etc.), like the
	// real SQE's rw_flags field.
	RWFlags  uint32
	UserData uint64
	// Tenant identifies the owning tenant (0 = untenanted); it rides the
	// SQE into the kernel so QoS schedulers and SR-IOV queue mapping can
	// account the I/O to its owner.
	Tenant int
	// Trace is the per-I/O trace context riding on this SQE (zero when
	// the op is unsampled or tracing is off).
	Trace trace.Ref
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
	// PolledMode has the application busy-poll the CQ (IORING_SETUP_IOPOLL).
	PolledMode
	// SQPollMode runs a kernel-side poller that drains the SQ without any
	// enter syscalls (IORING_SETUP_SQPOLL); DeLiBA-K's configuration.
	SQPollMode
)

func (m Mode) String() string {
	switch m {
	case InterruptMode:
		return "interrupt"
	case PolledMode:
		return "polled"
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
	Op  Op
	FD  int32
	Off int64
	Len uint32
	// RWFlags carries the SQE's per-op hints.
	RWFlags uint32
	// Registered reports whether the data buffer was registered (zero-copy).
	Registered bool
	// CPU is the core this request was submitted from (set from the ring).
	CPU int
	// Tenant is the owning tenant copied from the SQE (0 = untenanted).
	Tenant int
	// Trace is the per-I/O trace context copied from the SQE.
	Trace trace.Ref
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
	CopyPerKiB    sim.Duration // user<->kernel copy for unregistered buffers
	SQPollLatency sim.Duration // SQPOLL pickup delay after an SQE is queued
	WakeupCost    sim.Duration // interrupt-mode completion wakeup
}

// Default cost values (calibrated in internal/core/costmodel).
const (
	DefaultSyscallCost   = 1200 * sim.Nanosecond
	DefaultPerSQECost    = 250 * sim.Nanosecond
	DefaultCopyPerKiB    = 60 * sim.Nanosecond
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
	if p.CopyPerKiB == 0 {
		p.CopyPerKiB = DefaultCopyPerKiB
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

// Errors.
var (
	ErrSQFull     = errors.New("iouring: submission queue full")
	ErrRingClosed = errors.New("iouring: ring closed")
)

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

	// Completion ring.
	cqEntries []CQE
	cqHead    uint32
	cqTail    uint32
	cqMask    uint32

	// cqWaiters are procs blocked in WaitCQE.
	cqWaiters []func()
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
	// chain holds a link chain the SQPOLL poller caught mid-publication:
	// its last gathered SQE still has FlagIOLink set, so the chain's tail
	// had not been written to the SQ when the drain ran. The next drain
	// resumes gathering; an explicit submit boundary or Close truncates
	// instead (see drainSQ).
	chain []SQE
	// bufTable holds registered fixed-buffer sizes (nil = none).
	bufTable []int

	// inflightFree recycles dispatched-SQE state (see inflight).
	inflightFree []*inflight

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

// CQReady returns completions ready to reap.
func (r *Ring) CQReady() int { return int(r.cqTail - r.cqHead) }

// InFlight returns submitted-but-uncompleted operations.
func (r *Ring) InFlight() int { return r.inFlight }

// Stats returns cumulative counters: enter syscalls, submitted SQEs,
// completions reaped, CQ overflows, and the in-flight high-water mark.
func (r *Ring) Stats() (enters, submitted, completed, overflow uint64, maxInFlight int) {
	return r.enters, r.submitted, r.completed, r.cqOverflow, r.maxInFlight
}

// GetSQE reserves the next submission slot, or nil when the SQ is full.
// Fill the returned entry before calling Submit (or before the SQPOLL
// poller picks it up).
func (r *Ring) GetSQE() *SQE {
	if r.closed {
		return nil
	}
	if r.sqTail-r.sqHead >= uint32(len(r.sqEntries)) {
		return nil
	}
	sqe := &r.sqEntries[r.sqTail&r.sqMask]
	*sqe = SQE{BufIndex: -1}
	r.sqTail++
	if r.params.Mode == SQPollMode {
		r.armPoller()
	}
	return sqe
}

// RegisterBuffers registers a fixed-buffer table
// (io_uring_register(IORING_REGISTER_BUFFERS)): SQEs whose BufIndex points
// into the table skip the per-I/O user<->kernel copy and pin cost. sizes
// lists each buffer's length.
func (r *Ring) RegisterBuffers(sizes []int) error {
	if r.closed {
		return ErrRingClosed
	}
	if len(r.bufTable) != 0 {
		return errors.New("iouring: buffers already registered")
	}
	if len(sizes) == 0 {
		return errors.New("iouring: empty buffer table")
	}
	for i, n := range sizes {
		if n <= 0 {
			return fmt.Errorf("iouring: bad buffer %d size %d", i, n)
		}
	}
	r.bufTable = append([]int(nil), sizes...)
	return nil
}

// UnregisterBuffers drops the fixed-buffer table.
func (r *Ring) UnregisterBuffers() {
	r.bufTable = nil
}

// RegisteredBuffers returns the table size.
func (r *Ring) RegisteredBuffers() int { return len(r.bufTable) }

// validateBufIndex checks an SQE's fixed-buffer reference against the
// table; rings without a table treat any non-negative index as registered
// (the permissive pre-table behaviour kept for the framework stacks).
func (r *Ring) validateBufIndex(sqe SQE) int32 {
	if sqe.BufIndex < 0 || len(r.bufTable) == 0 {
		return 0
	}
	if int(sqe.BufIndex) >= len(r.bufTable) {
		return ResEFAULT
	}
	if int(sqe.Len) > r.bufTable[sqe.BufIndex] {
		return ResEFAULT
	}
	return 0
}

// SetReaper makes fn the ring's completion reaper: each posted CQE arms
// one drain event (unless one is already pending or running), which reaps
// every ready CQE and hands it to fn. The drain runs one Schedule(0) after
// the post, where a reaper process blocked in WaitCQE would have been
// woken; in interrupt mode it pays WakeupCost before reaping, as that
// process's wakeup sleep did. A reaper needs no process and no goroutine.
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
// submissions fail. A link chain parked by the SQPOLL poller (its tail
// never published) dispatches truncated, and blocked CQ waiters are woken
// so reaper loops can exit.
func (r *Ring) Close() {
	r.closed = true
	if r.chain != nil {
		chain := r.chain
		r.chain = nil
		r.dispatchChain(chain)
	}
	ws := r.cqWaiters
	r.cqWaiters = nil
	for _, w := range ws {
		r.eng.Schedule(0, w)
	}
}

// Submit pushes all queued SQEs to the kernel (io_uring_enter with
// to_submit = pending). In SQPOLL mode there is no syscall: the poller owns
// submission and Submit only reports what is pending.
func (r *Ring) Submit(p *sim.Proc) (int, error) {
	if r.closed {
		return 0, ErrRingClosed
	}
	n := r.SQPending()
	if r.params.Mode == SQPollMode || n == 0 {
		return n, nil
	}
	p.Block(func(wake func()) { r.enter(n, wake) })
	return n, nil
}

// Enter is Submit for an event-driven submitter. It must run in engine
// context; like Submit it does nothing on a closed ring, in SQPOLL mode,
// or with nothing pending.
func (r *Ring) Enter() {
	if r.closed || r.params.Mode == SQPollMode {
		return
	}
	if n := r.SQPending(); n > 0 {
		r.enter(n, nil)
	}
}

// enter is io_uring_enter: the syscall and per-SQE costs elapse as one
// event, then n SQEs drain and then (if non-nil) runs.
func (r *Ring) enter(n int, then func()) {
	r.enters++
	r.eng.Schedule(r.params.SyscallCost+sim.Duration(n)*r.params.PerSQECost, func() {
		r.drainSQ(n, true)
		if then != nil {
			then()
		}
	})
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
		r.drainSQ(n, false)
	}
}

// drainSQ moves up to n SQEs from the ring into the target. Concurrent
// enters (several submitter threads, or an enter racing the SQPOLL thread)
// may have consumed entries between observing the count and draining, so
// the loop re-checks emptiness — as the kernel's consumer side does.
//
// Link chains are gathered whole: consecutive SQEs joined by FlagIOLink
// execute sequentially, and a failure cancels the chain's remainder. A
// chain may straddle drains, because this model's GetSQE publishes entries
// one at a time (unlike a real app's single atomic tail update), so the
// SQPOLL poller can observe a chain whose tail is not yet written. The
// open chain is then parked in r.chain and the next drain resumes
// gathering it. At a submit boundary (an explicit io_uring_enter, or
// Close) an open chain instead dispatches truncated: a dangling
// FlagIOLink on the final submitted SQE has nothing to link to, which is
// exactly how Linux treats a chain cut by the to_submit window.
func (r *Ring) drainSQ(n int, submitBoundary bool) {
	consumed := 0
	for r.sqTail != r.sqHead && (consumed < n || (r.chain != nil && !submitBoundary)) {
		sqe := r.sqEntries[r.sqHead&r.sqMask]
		r.sqHead++
		r.submitted++
		consumed++
		if r.chain != nil {
			r.chain = append(r.chain, sqe)
			if sqe.Flags&FlagIOLink == 0 {
				chain := r.chain
				r.chain = nil
				r.dispatchChain(chain)
			}
			continue
		}
		if sqe.Flags&FlagIODrain != 0 && r.inFlight > 0 {
			// Drain barrier: park until in-flight ops finish.
			r.parkDrain(sqe)
			continue
		}
		if sqe.Flags&FlagIOLink != 0 {
			r.chain = []SQE{sqe}
			continue
		}
		r.dispatch(sqe)
	}
	if r.chain != nil && submitBoundary {
		chain := r.chain
		r.chain = nil
		r.dispatchChain(chain)
	}
}

// parkDrain holds a drain-flagged SQE until the ring quiesces.
func (r *Ring) parkDrain(sqe SQE) {
	if r.inFlight == 0 {
		r.dispatch(sqe)
		return
	}
	r.eng.Schedule(r.params.SQPollLatency, func() { r.parkDrain(sqe) })
}

// dispatchChain executes linked SQEs sequentially; a failed link posts
// -ECANCELED for each remaining one.
func (r *Ring) dispatchChain(chain []SQE) {
	if len(chain) == 0 {
		return
	}
	head, rest := chain[0], chain[1:]
	r.dispatchCB(head, func(res int32) {
		if res < 0 {
			for _, c := range rest {
				r.postCQE(CQE{UserData: c.UserData, Res: ECanceled})
			}
			return
		}
		r.dispatchChain(rest)
	})
}

func (r *Ring) dispatch(sqe SQE) { r.dispatchCB(sqe, nil) }

// dispatchCB dispatches one SQE; after posts its CQE, then runs (for link
// chains).
func (r *Ring) dispatchCB(sqe SQE, after func(res int32)) {
	if res := r.validateBufIndex(sqe); res < 0 {
		r.eng.Schedule(0, func() {
			r.postCQE(CQE{UserData: sqe.UserData, Res: res})
			if after != nil {
				after(res)
			}
		})
		return
	}
	req := Request{
		Op:         sqe.Op,
		FD:         sqe.FD,
		Off:        sqe.Off,
		Len:        sqe.Len,
		RWFlags:    sqe.RWFlags,
		Registered: sqe.BufIndex >= 0,
		CPU:        r.params.CPU,
		Tenant:     sqe.Tenant,
		Trace:      sqe.Trace,
	}
	// Unregistered buffers pay a user->kernel copy on writes now and a
	// kernel->user copy when the completion is reaped.
	var submitDelay sim.Duration
	if !req.Registered && req.Op == OpWrite {
		submitDelay = sim.Duration(int64(r.params.CopyPerKiB) * int64(req.Len) / 1024)
	}
	r.inFlight++
	if r.inFlight > r.maxInFlight {
		r.maxInFlight = r.inFlight
	}
	f := r.getInflight()
	f.req, f.userData, f.after = req, sqe.UserData, after
	if submitDelay > 0 {
		r.eng.Schedule(submitDelay, f.deliver)
	} else {
		f.deliver()
	}
}

// inflight is one dispatched SQE awaiting its target's completion. The
// structs are recycled through the ring's freelist; their callbacks are
// bound once, so steady-state dispatch allocates nothing.
type inflight struct {
	r        *Ring
	req      Request
	userData uint64
	after    func(res int32)
	deliver  func()
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
	f.deliver = f.submit
	f.complete = f.completed
	return f
}

func (f *inflight) submit() { f.r.target.Submit(f.req, f.complete) }

// completed posts the CQE, recycles f, then runs the link-chain
// continuation.
func (f *inflight) completed(res int32) {
	r, ud, after := f.r, f.userData, f.after
	f.req, f.after = Request{}, nil
	r.inflightFree = append(r.inflightFree, f)
	r.inFlight--
	r.postCQE(CQE{UserData: ud, Res: res})
	if after != nil {
		after(res)
	}
}

// postCQE appends a completion and wakes the reaper or CQ waiters.
func (r *Ring) postCQE(cqe CQE) {
	if r.cqTail-r.cqHead >= uint32(len(r.cqEntries)) {
		r.cqOverflow++
		return
	}
	r.cqEntries[r.cqTail&r.cqMask] = cqe
	r.cqTail++
	if r.reaper != nil && !r.reapArmed {
		r.reapArmed = true
		r.eng.Schedule(0, r.wake)
	}
	for _, w := range r.cqWaiters {
		r.eng.Schedule(0, w)
	}
	clear(r.cqWaiters)
	r.cqWaiters = r.cqWaiters[:0]
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
	return cqe, true
}

// WaitCQE blocks the proc until a completion is available and reaps it.
// Interrupt mode pays the wakeup cost; polled/SQPOLL modes observe the CQE
// as soon as it is posted (the model folds the poll loop into zero cost
// because the polling core does no other useful work). It is the process
// form of SetReaper; a ring has one or the other.
func (r *Ring) WaitCQE(p *sim.Proc) (CQE, error) {
	for {
		if cqe, ok := r.PeekCQE(); ok {
			return cqe, nil
		}
		if r.closed && r.inFlight == 0 {
			return CQE{}, ErrRingClosed
		}
		p.Block(func(wake func()) {
			r.cqWaiters = append(r.cqWaiters, wake)
		})
		if r.params.Mode == InterruptMode {
			p.Sleep(r.params.WakeupCost)
		}
	}
}
