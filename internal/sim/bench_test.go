package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleRun measures raw event throughput: one Schedule plus one
// dispatch per iteration, self-sustaining so the heap never empties. Heap
// slots are values reused in place, so this is allocation-free in steady
// state.
func BenchmarkScheduleRun(b *testing.B) {
	eng := NewEngine()
	n := b.N
	var tick func()
	tick = func() {
		if n--; n > 0 {
			eng.Schedule(Microsecond, tick)
		}
	}
	eng.Schedule(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkScheduleNow measures the same-instant lane: a Schedule(0) chain,
// one schedule plus one dispatch per iteration with the clock standing
// still, so no event passes through the heap.
func BenchmarkScheduleNow(b *testing.B) {
	eng := NewEngine()
	n := b.N
	var tick func()
	tick = func() {
		if n--; n > 0 {
			eng.Schedule(0, tick)
		}
	}
	eng.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkSchedulePingPong keeps a deeper heap busy: 64 self-rescheduling
// events with staggered periods, exercising sift-up/down paths.
func BenchmarkSchedulePingPong(b *testing.B) {
	eng := NewEngine()
	const width = 64
	n := b.N
	for i := 0; i < width; i++ {
		period := Duration(i%7+1) * Microsecond
		var tick func()
		tick = func() {
			if n--; n > 0 {
				eng.Schedule(period, tick)
			}
		}
		eng.Schedule(period, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkScheduleCancel measures the schedule+cancel pair (timeout-style
// usage: most armed events never fire).
func BenchmarkScheduleCancel(b *testing.B) {
	eng := NewEngine()
	// Keep one event live, so the queue is never empty and the cancel
	// marks span every iteration.
	eng.Schedule(Duration(b.N+1)*Microsecond, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := eng.Schedule(Microsecond, func() {})
		eng.Cancel(id)
	}
}

// TestScheduleRunZeroAlloc: once the queue's arrays have grown, neither a
// heap event nor a same-instant lane chain allocates per schedule+dispatch.
func TestScheduleRunZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Grow the heap and the lane past the measured depth.
	for i := 0; i < 64; i++ {
		eng.Schedule(Duration(i)*Microsecond, fn)
		eng.Schedule(0, fn)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(Microsecond, fn)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule+run allocated %.1f/op, want 0", allocs)
	}
	left := 0
	var chain func()
	chain = func() {
		if left--; left > 0 {
			eng.Schedule(0, chain)
		}
	}
	allocs = testing.AllocsPerRun(1000, func() {
		left = 16
		eng.Schedule(0, chain)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("lane chain allocated %.1f/op, want 0", allocs)
	}
}

// BenchmarkShardsWindow measures the barrier loop of a two-shard group, one
// op per window: each shard holds one domain, and every event posts one
// message to the other domain one lookahead ahead, so each window runs one
// event per shard and merges two messages. The queues and the outbox are
// grown before the timer starts, so it is allocation-free.
func BenchmarkShardsWindow(b *testing.B) {
	sh := NewShards(2, Microsecond)
	a, engA := sh.AddDomainAt("a", 0)
	c, engC := sh.AddDomainAt("c", 1)
	left := 0 // windows still to run, the current one included
	var pingA, pingC func()
	pingA = func() {
		if left > 1 {
			sh.PostAt(a, c, engA.Now().Add(Microsecond), pingC)
		}
	}
	pingC = func() { // shard 1 runs last in each window
		if left--; left > 0 {
			sh.PostAt(c, a, engC.Now().Add(Microsecond), pingA)
		}
	}
	start := func(n int) {
		left = n
		engA.Schedule(0, pingA)
		engC.Schedule(0, pingC)
	}
	start(2 * busySampleEvery)
	sh.Run()
	start(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	w := sh.Windows()
	sh.Run()
	if got := sh.Windows() - w; got != uint64(b.N) {
		b.Fatalf("%d windows for %d ops", got, b.N)
	}
}

// BenchmarkServerBook measures one FIFO booking on a single-lane station
// (a wire, a bus, an FSM) and on a 4-lane one (an OSD node's protocol
// workers). Offers arrive faster than the service time, so the lanes stay
// backlogged and every call searches them. Booking is allocation-free.
func BenchmarkServerBook(b *testing.B) {
	for _, lanes := range []int{1, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			var s Server
			s.SetLanes(lanes)
			var at Time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bookSink = s.Book(at, 3)
				at++
			}
		})
	}
}

// bookSink keeps BenchmarkServerBook's calls from being optimised away.
var bookSink Time
