package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleRun measures raw event throughput: one Schedule plus one
// dispatch per iteration, self-sustaining so the queue never empties. The
// one pending event is held by value as the engine's first, so this is
// allocation-free in steady state.
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
// still, so no event passes through the wheel or the heap.
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

// BenchmarkSchedulePingPong keeps a deeper queue busy: 64 self-rescheduling
// events with staggered periods of 1 to 7 µs, spread over 14 wheel
// buckets.
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

// spreadDelays returns n delays drawn from dk-hw-rand's measured mix of
// timed-event delays: 73% one of its seven most common delays (112 ns to
// 16.9 µs), 10% anywhere from 104 ns to 65 µs, and 17% from 65 to 146 µs
// (bookings behind busy stations). With farFrac > 0, that share of the
// delays is instead 0.6 to 2 ms, past the wheel's 524 µs horizon, as the
// cache tier's longest timers are.
func spreadDelays(n int, farFrac float64, seed uint64) []Duration {
	common := []Duration{400, 608, 900, 1318, 1500, 112, 16900}
	rng := NewRNG(seed)
	out := make([]Duration, n)
	for i := range out {
		switch u := rng.Float64(); {
		case u < farFrac:
			out[i] = Duration(600_000 + rng.Intn(1_400_000))
		case u < farFrac+(1-farFrac)*0.73:
			out[i] = common[rng.Intn(len(common))]
		case u < farFrac+(1-farFrac)*0.83:
			out[i] = Duration(104 + rng.Intn(65_000-104))
		default:
			out[i] = Duration(65_000 + rng.Intn(81_000))
		}
	}
	return out
}

// BenchmarkScheduleSpread keeps 60 events pending, dk-hw-rand's mean queue
// depth, each rescheduling itself with the next delay of spreadDelays: at
// near, every delay is inside the wheel's horizon; at far10, 10% of them
// are past it and wait in the heap.
func BenchmarkScheduleSpread(b *testing.B) {
	for _, c := range []struct {
		name string
		far  float64
	}{{"near", 0}, {"far10", 0.10}} {
		b.Run(c.name, func(b *testing.B) {
			eng := NewEngine()
			delays := spreadDelays(4096, c.far, 5)
			const depth = 60
			n, next := b.N, 0
			var tick func()
			tick = func() {
				if n--; n > 0 {
					eng.Schedule(delays[next%len(delays)], tick)
					next++
				}
			}
			for i := 0; i < depth; i++ {
				eng.Schedule(delays[i], tick)
			}
			next = depth
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
		})
	}
}

// TestScheduleRunZeroAlloc: once the queue's arrays have grown, neither a
// timed event (in first, the wheel or the heap) nor a same-instant lane
// chain allocates per schedule+dispatch. A warm engine keeps reaching
// wheel buckets it has not used yet, so the warm-up first walks a chain of
// events one bucket apart once around the wheel.
func TestScheduleRunZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Grow the heap and the lane past the measured depth.
	for i := 0; i < 64; i++ {
		eng.Schedule(Duration(i)*Microsecond, fn)
		eng.Schedule(0, fn)
		eng.Schedule(Duration(i)*Millisecond, fn)
	}
	eng.Run()
	wrap := wheelBuckets + 1
	var hop func()
	hop = func() {
		if wrap--; wrap > 0 {
			eng.Schedule(1<<wheelShift, hop)
		}
	}
	eng.Schedule(1<<wheelShift, hop)
	eng.Run()
	delays := spreadDelays(64, 0.10, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, d := range delays {
			eng.Schedule(d, fn)
		}
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
