package iouring

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// stubTarget completes each request after a fixed latency and records what
// it saw.
type stubTarget struct {
	eng     *sim.Engine
	latency sim.Duration
	reqs    []Request
}

func (s *stubTarget) Submit(req Request, complete func(res int32)) {
	s.reqs = append(s.reqs, req)
	res := int32(req.Len)
	s.eng.Schedule(s.latency, func() { complete(res) })
}

// submit enters the ring's pending SQEs and waits out the syscall, as a
// blocking io_uring_enter does.
func submit(eng *sim.Engine, r *Ring) (n int, err error) {
	eng.Wait(func(wake func()) { n, err = r.Enter(wake) })
	return n, err
}

// cqQueue collects a ring's completions through its SetReaper drain, so a
// test driving the engine with Wait takes them in order as they are reaped.
type cqQueue struct {
	eng  *sim.Engine
	cqes []CQE
	wake func()
}

func reapInto(eng *sim.Engine, r *Ring) *cqQueue {
	q := &cqQueue{eng: eng}
	r.SetReaper(func(cqe CQE) {
		q.cqes = append(q.cqes, cqe)
		if w := q.wake; w != nil {
			q.wake = nil
			w()
		}
	})
	return q
}

// next waits for the oldest completion not yet taken and returns it.
func (q *cqQueue) next() CQE {
	if len(q.cqes) == 0 {
		q.eng.Wait(func(wake func()) { q.wake = wake })
	}
	cqe := q.cqes[0]
	q.cqes = q.cqes[1:]
	return cqe
}

func newRingT(t *testing.T, eng *sim.Engine, params Params, lat sim.Duration) (*Ring, *stubTarget) {
	t.Helper()
	st := &stubTarget{eng: eng, latency: lat}
	r, err := Setup(eng, params, st)
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}

func TestSetupDefaults(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 100}, 0)
	if r.SQSize() != 128 {
		t.Fatalf("SQ size = %d, want 128 (pow2 round-up)", r.SQSize())
	}
	if r.Params().SyscallCost != DefaultSyscallCost {
		t.Fatal("defaults not applied")
	}
	if _, err := Setup(eng, Params{}, nil); err == nil {
		t.Fatal("nil target accepted")
	}
}

func TestSubmitAndComplete(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 8}, 10*sim.Microsecond)
	q := reapInto(eng, r)
	for i := 0; i < 4; i++ {
		sqe := r.GetSQE()
		if sqe == nil {
			t.Fatal("GetSQE returned nil")
		}
		sqe.Op = OpWrite
		sqe.Len = 4096
		sqe.UserData = uint64(i)
	}
	n, err := submit(eng, r)
	if err != nil || n != 4 {
		t.Fatalf("Enter = %d, %v", n, err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		c := q.next()
		if c.Res != 4096 {
			t.Fatalf("Res = %d", c.Res)
		}
		seen[c.UserData] = true
	}
	if len(seen) != 4 {
		t.Fatal("duplicate user data")
	}
	if len(st.reqs) != 4 {
		t.Fatalf("target saw %d requests", len(st.reqs))
	}
	enters, submitted, completed, overflow, _ := r.Stats()
	if enters != 1 || submitted != 4 || completed != 4 || overflow != 0 {
		t.Fatalf("stats: %d %d %d %d", enters, submitted, completed, overflow)
	}
}

func TestBatchingAmortizesSyscalls(t *testing.T) {
	// Submitting 32 SQEs in one Enter must cost far less app time than 32
	// single-SQE Enters.
	run := func(batch int) sim.Duration {
		eng := sim.NewEngine()
		r, _ := newRingT(t, eng, Params{Entries: 64}, 0)
		for i := 0; i < 32; i += batch {
			for j := 0; j < batch; j++ {
				sqe := r.GetSQE()
				sqe.Op = OpRead
				sqe.UserData = uint64(i + j)
			}
			if _, err := submit(eng, r); err != nil {
				t.Error(err)
			}
		}
		return sim.Duration(eng.Now())
	}
	batched := run(32)
	single := run(1)
	if batched >= single {
		t.Fatalf("batched submit (%v) not cheaper than singles (%v)", batched, single)
	}
	// 32 syscalls vs 1: the difference must be ~31 syscall costs.
	if single-batched < 30*DefaultSyscallCost {
		t.Fatalf("syscall amortization too small: %v", single-batched)
	}
}

func TestSQFull(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	for i := 0; i < 4; i++ {
		if r.GetSQE() == nil {
			t.Fatal("premature SQ full")
		}
	}
	if r.GetSQE() != nil {
		t.Fatal("SQ overfilled")
	}
	if r.SQPending() != 4 {
		t.Fatalf("pending = %d", r.SQPending())
	}
}

func TestSQPollModeNoSyscalls(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 8, Mode: SQPollMode}, 5*sim.Microsecond)
	q := reapInto(eng, r)
	for i := 0; i < 3; i++ {
		sqe := r.GetSQE()
		sqe.Op = OpRead
		sqe.Len = 512
		sqe.UserData = uint64(i)
	}
	// No Enter call at all: the kernel poller must pick the SQEs up.
	for i := 0; i < 3; i++ {
		q.next()
	}
	enters, submitted, _, _, _ := r.Stats()
	if enters != 0 {
		t.Fatalf("SQPOLL mode made %d enter syscalls", enters)
	}
	if submitted != 3 || len(st.reqs) != 3 {
		t.Fatalf("submitted=%d target=%d", submitted, len(st.reqs))
	}
}

func TestSQPollPickupLatency(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 8, Mode: SQPollMode}, 0)
	sqe := r.GetSQE()
	sqe.Op = OpRead
	eng.Run()
	if len(st.reqs) != 1 {
		t.Fatal("poller never picked up SQE")
	}
	if eng.Now() != sim.Time(DefaultSQPollLatency) {
		t.Fatalf("pickup at %v, want %v", eng.Now(), DefaultSQPollLatency)
	}
}

// TestInterruptModeWakeupCost pins an interrupt-mode round trip: the
// enter syscall and per-SQE cost, the target's latency, then the reaper's
// wakeup before it reaps.
func TestInterruptModeWakeupCost(t *testing.T) {
	lat := 20 * sim.Microsecond
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 8, Mode: InterruptMode}, lat)
	q := reapInto(eng, r)
	sqe := r.GetSQE()
	sqe.Op = OpRead
	sqe.Len = 4096
	submit(eng, r)
	q.next()
	want := DefaultSyscallCost + DefaultPerSQECost + lat + DefaultWakeupCost
	if got := sim.Duration(eng.Now()); got != want {
		t.Fatalf("completion reaped at %v, want %v", got, want)
	}
}

func TestCQOverflowCounted(t *testing.T) {
	eng := sim.NewEngine()
	// SQ 4 → CQ 8. Complete 12 ops without reaping: 4 must overflow.
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if sqe := r.GetSQE(); sqe != nil {
				sqe.Op = OpRead
			}
		}
		submit(eng, r)
	}
	eng.Run()
	_, _, _, overflow, _ := r.Stats()
	if overflow != 4 { // 12 submitted, 8 CQ slots
		t.Fatalf("overflow = %d, want 4", overflow)
	}
	// The overflowed CQEs are backlogged, not dropped: reaping frees room
	// for them, so all 12 come out.
	reaped := 0
	for {
		if _, ok := r.PeekCQE(); !ok {
			break
		}
		reaped++
	}
	if _, _, completed, _, _ := r.Stats(); reaped != 12 || completed != 12 {
		t.Fatalf("reaped %d CQEs (%d counted), want 12", reaped, completed)
	}
}

func TestPeekCQEEmpty(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	if _, ok := r.PeekCQE(); ok {
		t.Fatal("PeekCQE on empty CQ returned ok")
	}
}

func TestClosedRing(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	r.Close()
	if r.GetSQE() != nil {
		t.Fatal("GetSQE on closed ring")
	}
	if _, err := submit(eng, r); err != ErrRingClosed {
		t.Errorf("Enter err = %v", err)
	}
}

func TestCPUAffinityForwarded(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 4, CPU: 5}, 0)
	sqe := r.GetSQE()
	sqe.Op = OpRead
	submit(eng, r)
	if st.reqs[0].CPU != 5 {
		t.Fatalf("CPU = %d, want 5", st.reqs[0].CPU)
	}
}

// Property: the ring never loses or duplicates completions for any
// interleaving of batch sizes that fits the SQ.
func TestRingConservationProperty(t *testing.T) {
	f := func(batchSizes []uint8) bool {
		eng := sim.NewEngine()
		st := &stubTarget{eng: eng, latency: 3 * sim.Microsecond}
		r, err := Setup(eng, Params{Entries: 256}, st)
		if err != nil {
			return false
		}
		var id uint64
		seen := make(map[uint64]int)
		r.SetReaper(func(cqe CQE) { seen[cqe.UserData]++ })
		for _, bs := range batchSizes {
			n := int(bs%16) + 1
			for i := 0; i < n; i++ {
				sqe := r.GetSQE()
				if sqe == nil {
					break
				}
				sqe.Op = OpRead
				sqe.UserData = id
				id++
			}
			if _, err := submit(eng, r); err != nil {
				return false
			}
			// Reap everything before the next batch.
			eng.Run()
		}
		if uint64(len(seen)) != id {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Regression: concurrent enter "threads" must not double-consume SQEs.
// Each of several same-time events observes the same pending count and
// calls Enter;
// the ring may only dispatch each SQE once and the head must never pass
// the tail.
func TestConcurrentEntersNoDoubleDrain(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 16}, 5*sim.Microsecond)
	for i := 0; i < 8; i++ {
		sqe := r.GetSQE()
		sqe.Op = OpRead
		sqe.UserData = uint64(i)
	}
	for i := 0; i < 8; i++ {
		eng.Schedule(0, func() { r.Enter(nil) })
	}
	eng.Run()
	if len(st.reqs) != 8 {
		t.Fatalf("target saw %d requests, want 8", len(st.reqs))
	}
	if r.SQPending() != 0 {
		t.Fatalf("SQPending = %d after concurrent enters (head overran tail?)", r.SQPending())
	}
	_, submitted, _, _, _ := r.Stats()
	if submitted != 8 {
		t.Fatalf("submitted = %d, want 8", submitted)
	}
	// The ring must be reusable afterwards.
	sqe := r.GetSQE()
	if sqe == nil {
		t.Fatal("ring unusable after concurrent enters")
	}
}

func TestMaxInFlightTracked(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 16}, 50*sim.Microsecond)
	for i := 0; i < 8; i++ {
		sqe := r.GetSQE()
		sqe.Op = OpRead
	}
	submit(eng, r)
	eng.Run()
	_, _, _, _, maxIF := r.Stats()
	if maxIF != 8 {
		t.Fatalf("maxInFlight = %d, want 8", maxIF)
	}
}

// boundTarget completes each request after a fixed latency through one
// bound callback and a reused FIFO, so it allocates nothing per request
// and an allocation count over a round trip is the ring's own.
type boundTarget struct {
	eng     *sim.Engine
	latency sim.Duration
	queue   []func(res int32)
	lens    []int32
	head    int
	fire    func()
}

func newBoundTarget(eng *sim.Engine, latency sim.Duration) *boundTarget {
	bt := &boundTarget{eng: eng, latency: latency}
	bt.fire = bt.completeOldest
	return bt
}

func (bt *boundTarget) Submit(req Request, complete func(res int32)) {
	bt.queue = append(bt.queue, complete)
	bt.lens = append(bt.lens, int32(req.Len))
	bt.eng.Schedule(bt.latency, bt.fire)
}

func (bt *boundTarget) completeOldest() {
	complete, res := bt.queue[bt.head], bt.lens[bt.head]
	bt.queue[bt.head] = nil
	if bt.head++; bt.head == len(bt.queue) {
		bt.queue, bt.lens, bt.head = bt.queue[:0], bt.lens[:0], 0
	}
	complete(res)
}

// TestRingRoundTripAllocs pins the ring's own allocations over a
// submit-complete-reap round trip: neither an SQPOLL ring nor an
// interrupt-mode ring (whose enters are pooled) allocates once warm.
func TestRingRoundTripAllocs(t *testing.T) {
	const batch = 16
	for _, mode := range []Mode{SQPollMode, InterruptMode} {
		eng := sim.NewEngine()
		r, err := Setup(eng, Params{Entries: 2 * batch, Mode: mode}, newBoundTarget(eng, 2*sim.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		reaped := 0
		r.SetReaper(func(cqe CQE) {
			if cqe.Res == 4096 {
				reaped++
			}
		})
		round := func() {
			for i := 0; i < batch; i++ {
				sqe := r.GetSQE()
				sqe.Op = OpWrite
				sqe.Len = 4096
				sqe.UserData = uint64(i)
			}
			if _, err := r.Enter(nil); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}
		const runs = 100
		if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
			t.Errorf("%v: %.1f allocs per %d-SQE round trip, want 0", mode, allocs, batch)
		}
		// AllocsPerRun runs round once more as its warm-up.
		if reaped != (runs+1)*batch {
			t.Errorf("%v: reaped %d completions, want %d", mode, reaped, (runs+1)*batch)
		}
	}
}
