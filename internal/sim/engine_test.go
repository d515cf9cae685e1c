package sim

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of schedule order: %v", got)
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
		e.Schedule(0, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 3 || times[0] != 10 || times[1] != 10 || times[2] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("first Cancel returned false")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	ids := make([]EventID, 10)
	for i := 0; i < 10; i++ {
		i := i
		ids[i] = e.Schedule(Duration(i)*10, func() { got = append(got, i) })
	}
	e.Cancel(ids[3])
	e.Cancel(ids[7])
	e.Run()
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("events before deadline = %d, want 2", len(got))
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	e.RunUntil(40)
	if len(got) != 4 {
		t.Fatalf("total events = %d, want 4", len(got))
	}
}

func TestRunUntilInclusiveDeadline(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(25, func() { fired = true })
	e.RunUntil(25)
	if !fired {
		t.Fatal("event exactly at deadline did not fire")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Remaining events still runnable.
	e.Run()
	if count != 10 {
		t.Fatalf("count after second Run = %d, want 10", count)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		e.Schedule(-5, func() {
			if e.Now() != 10 {
				t.Errorf("negative delay fired at %v", e.Now())
			}
		})
	})
	e.Run()
}

func TestAtInPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		e.At(3, func() {
			if e.Now() != 10 {
				t.Errorf("past At fired at %v, want 10", e.Now())
			}
		})
	})
	e.Run()
}

// Property: for any set of delays, events fire in nondecreasing time order
// and equal times preserve scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, d
			e.Schedule(Duration(d), func() { got = append(got, rec{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		}) {
			return false
		}
		for i, r := range got {
			if r.at != Time(delays[r.seq]) {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

// TestCancelChurnStaysBounded replays the resilience layer's deadline churn
// (core/resilience.go): every op arms a 5 ms deadline timer and cancels it
// when the op completes, long before the timer is due. The timers wait in
// the heap (5 ms is past the wheel's horizon) and the completions in the
// wheel. Cancelled timers wait in the queue until compaction, so it must
// stay within twice the live events, and neither the cancel marks nor the
// wheel's node pool may grow with the run: the marks stay within 64 words
// while the run issues 200,000 sequence numbers, and the pool within the
// queue depth.
func TestCancelChurnStaysBounded(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(11)
	const qd, ops = 16, 100000
	started := 0
	var issue func()
	issue = func() {
		if started == ops {
			return
		}
		started++
		timer := eng.Schedule(5*Millisecond, func() { t.Error("deadline fired") })
		eng.Schedule(Duration(20+rng.Intn(180))*Microsecond, func() {
			eng.Cancel(timer)
			issue()
		})
	}
	for i := 0; i < qd; i++ {
		issue()
	}
	maxQueued, maxWheel, maxHeap := 0, 0, 0
	for eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + Time(Microsecond))
		queued := eng.queued()
		maxQueued = max(maxQueued, queued)
		maxWheel = max(maxWheel, eng.wlen)
		maxHeap = max(maxHeap, len(eng.heap))
		if queued > 2*eng.Pending()+1 {
			t.Fatalf("at %v: %d queued for %d live events", eng.Now(), queued, eng.Pending())
		}
		if len(eng.dead) > 64 {
			t.Fatalf("at %v: cancel marks grew to %d words", eng.Now(), len(eng.dead))
		}
		if len(eng.nodes) > 2*qd+1 {
			t.Fatalf("at %v: wheel node pool grew to %d", eng.Now(), len(eng.nodes))
		}
	}
	if started != ops || maxQueued < qd || eng.seq != 2*ops {
		t.Fatalf("started %d ops, issued %d seqs, queue peaked at %d", started, eng.seq, maxQueued)
	}
	if maxWheel < qd/2 || maxHeap < qd/2 {
		t.Fatalf("wheel peaked at %d events, heap at %d; want both at least %d", maxWheel, maxHeap, qd/2)
	}
}

// TestIdleClockDropsCancelledEvents: a Stop can leave only cancelled
// events queued, and RunUntil then moves the idle clock past them. They
// must not stay behind the clock in the wheel, where the bucket of the
// earliest of them also holds events a full horizon later: the events
// scheduled afterwards still run in time order.
func TestIdleClockDropsCancelledEvents(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.Schedule(5, rec)
	e.Schedule(6, func() { rec(); e.Stop() })
	e.Cancel(e.Schedule(100, rec)) // the minority when cancelled
	e.RunUntil(1000)
	if e.Now() != 1000 || e.Pending() != 0 {
		t.Fatalf("after the stop: now %v, %d pending; want 1µs, 0", e.Now(), e.Pending())
	}
	// The first bucket past the wheel's reach from bucket 0, which the
	// cancelled event at 100 occupied, and one in between.
	far := Time(wheelBuckets << wheelShift)
	e.At(far, rec)
	e.At(500<<wheelShift, rec)
	e.Run()
	want := []Time{5, 6, 500 << wheelShift, far}
	if !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}
