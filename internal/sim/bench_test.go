package sim

import "testing"

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
