// Package sim provides a deterministic discrete-event simulation engine.
//
// All DeLiBA-K substrates (block layer, QDMA, FPGA, network, OSD cluster)
// are modelled in virtual time on top of this engine. Events execute in
// strict (time, sequence) order, so every simulation run is exactly
// reproducible for a given seed and workload.
//
// A single Engine is single-threaded by design: all model callbacks run on
// the goroutine that called Run, so model code needs no locking. Concurrency
// in the modelled system (multiple CPU cores, queues, devices) is expressed
// as interleaved event chains, not OS parallelism.
//
// For a topology split into domains an Engine can instead be one shard of
// a Shards group (see shard.go): each shard runs its own event loop on its own
// worker, and cross-shard interactions travel as time-stamped messages under
// conservative-lookahead barrier synchronization.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxInt64)

// Microseconds reports d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled callback. Fired and cancelled events return to the
// engine's freelist, so steady-state scheduling allocates nothing.
type event struct {
	at  Time
	seq uint64 // tie-breaker: schedule order
	fn  func()
	idx int    // heap index; -1 when popped/cancelled
	gen uint64 // recycle generation; stale EventIDs fail the gen check
}

// EventID identifies a scheduled event so it can be cancelled. An ID taken
// from an event that has since fired (and whose struct was recycled) is
// detected by generation and cancels nothing.
type EventID struct {
	ev  *event
	gen uint64
}

// eventHeap is an inlined 4-ary min-heap on (at, seq). It replaces the
// container/heap interface implementation: no `any` boxing and no interface
// dispatch on the engine's hottest loop, and the wider node halves the tree
// depth (fewer cache lines touched per sift on deep heaps).
type eventHeap []*event

// heapArity is the heap fan-out. 4 keeps a node's children inside one cache
// line of pointers while still shortening the sift paths vs binary.
const heapArity = 4

// lessEv is the engine's total event order: time, then schedule sequence.
func lessEv(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds ev and restores heap order.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// up sifts the element at i toward the root, moving the hole rather than
// swapping (one write per level instead of three).
func (h *eventHeap) up(i int) {
	hp := *h
	ev := hp[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !lessEv(ev, hp[p]) {
			break
		}
		hp[i] = hp[p]
		hp[i].idx = i
		i = p
	}
	hp[i] = ev
	ev.idx = i
}

// down sifts the element at i toward the leaves.
func (h *eventHeap) down(i int) {
	hp := *h
	n := len(hp)
	ev := hp[i]
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if lessEv(hp[j], hp[best]) {
				best = j
			}
		}
		if !lessEv(hp[best], ev) {
			break
		}
		hp[i] = hp[best]
		hp[i].idx = i
		i = best
	}
	hp[i] = ev
	ev.idx = i
}

// removeAt removes and returns the element at heap index i.
func (h *eventHeap) removeAt(i int) *event {
	hp := *h
	ev := hp[i]
	n := len(hp) - 1
	last := hp[n]
	hp[n] = nil
	*h = hp[:n]
	if i < n {
		hp[i] = last
		last.idx = i
		if i > 0 && lessEv(last, hp[(i-1)/heapArity]) {
			h.up(i)
		} else {
			h.down(i)
		}
	}
	ev.idx = -1
	return ev
}

// pop removes and returns the minimum element.
func (h *eventHeap) pop() *event { return h.removeAt(0) }

// defaultFreeCap bounds how many recycled event structs an engine retains.
// A scheduling burst (a fan-out storm, a backfill wave) beyond the cap is
// released to the GC instead of pinning memory for the rest of the run;
// Reserve raises the cap for topologies that legitimately run that deep.
const defaultFreeCap = 8192

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; call NewEngine (or build a Shards group and
// register domains, which yields one engine per shard).
type Engine struct {
	now      Time
	seq      uint64
	pq       eventHeap
	free     []*event // recycled event structs (see At/recycle)
	freeCap  int      // retention bound for free
	running  bool
	stopped  bool
	executed uint64 // events dispatched (stats)

	// group/shard link this engine to a Shards front end; nil for a plain
	// single-loop engine.
	group *Shards
	shard int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{freeCap: defaultFreeCap}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled (uncancelled) events.
func (e *Engine) Pending() int { return len(e.pq) }

// Executed reports the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Reserve pre-sizes the event heap and freelist for roughly n concurrently
// scheduled events — a topology hint, so large-cluster runs do not grow the
// structures incrementally on the hot path — and raises the freelist
// retention cap to match. Reserving less than the current footprint is a
// no-op; Reserve never shrinks.
func (e *Engine) Reserve(n int) {
	if n <= 0 {
		return
	}
	if n > e.freeCap {
		e.freeCap = n
	}
	if cap(e.pq) < n {
		pq := make(eventHeap, len(e.pq), n)
		copy(pq, e.pq)
		e.pq = pq
	}
	if have := len(e.free) + len(e.pq); have < n {
		// One slab allocation for the whole deficit instead of n singles.
		slab := make([]event, n-have)
		for i := range slab {
			e.free = append(e.free, &slab[i])
		}
	}
}

// Schedule runs fn after d elapses. A negative d is treated as zero.
// It returns an EventID usable with Cancel.
func (e *Engine) Schedule(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at absolute time t. Times in the past execute "now" but never
// before already-scheduled events at the current time.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		t = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = t, e.seq, fn
	} else {
		ev = &event{at: t, seq: e.seq, fn: fn}
	}
	e.seq++
	e.pq.push(ev)
	return EventID{ev, ev.gen}
}

// recycle returns a popped/cancelled event to the freelist, unless the list
// is already at its retention cap (then the struct is left to the GC so a
// burst cannot pin memory for the rest of the run). The generation bump
// invalidates any EventID still pointing at the struct.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	if len(e.free) >= e.freeCap {
		return
	}
	e.free = append(e.free, ev)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually removed.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.idx < 0 {
		return false
	}
	e.pq.removeAt(ev.idx)
	e.recycle(ev)
	return true
}

// Stop makes Run return after the current event completes. On a sharded
// engine the whole group winds down at the next window barrier.
func (e *Engine) Stop() {
	e.stopped = true
}

// Wait runs events until the wake callback handed to register fires, then
// returns with later events still pending and the clock at the waking
// event. It is how a sequential driver outside the loop (a script, a test)
// waits on a layer's callback API: register starts the operation and
// passes wake as (or calls it from) the completion callback. A wake inside
// register returns at once, running no event; a wake after Wait returned
// does nothing. The driver's next step runs after the waking event
// finishes, not inside it. Wait panics if the queue drains before the wake
// (a lost wake-up) and on a Shards engine, where Stop only lands at the
// next window barrier.
func (e *Engine) Wait(register func(wake func())) {
	if e.group != nil {
		panic("sim: Wait on a sharded engine")
	}
	woken, looping := false, false
	register(func() {
		woken = true
		if looping {
			looping = false
			e.stopped = true
		}
	})
	looping = !woken
	for !woken {
		if len(e.pq) == 0 {
			panic(fmt.Sprintf("sim: Wait: event queue drained at %v before the wake", e.now))
		}
		e.RunUntil(MaxTime)
	}
}

// Run executes events until the queue drains or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with time ≤ deadline. Events scheduled exactly at
// the deadline do run. On return the clock rests at the last executed event
// (or at the deadline if it advanced past all events).
//
// On an engine that belongs to a Shards group, RunUntil drives the whole
// group: every shard's loop runs (in parallel where cores allow) under the
// group's barrier protocol, and RunUntil returns when all shards have
// drained up to the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	if g := e.group; g != nil {
		g.runUntil(deadline)
		return e.now
	}
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for len(e.pq) > 0 && !e.stopped {
		next := e.pq[0]
		if next.at > deadline {
			e.now = deadline
			return e.now
		}
		e.pq.pop()
		e.now = next.at
		fn := next.fn
		// Recycle before running fn: the callback may schedule new events
		// that reuse the struct; fn is already saved and next is not touched
		// again.
		e.recycle(next)
		e.executed++
		if fn != nil {
			fn()
		}
	}
	if len(e.pq) == 0 && e.now < deadline && deadline != MaxTime {
		e.now = deadline
	}
	return e.now
}

// runWindow executes events with time ≤ limit and returns without advancing
// the clock past the last executed event. It is the per-shard kernel step the
// Shards barrier loop drives; unlike RunUntil it neither resets the stopped
// flag (the group owns it) nor advances the clock to an idle limit (a shard's
// clock must rest on real work so cross-shard arrivals are never "in the
// past").
func (e *Engine) runWindow(limit Time) {
	if e.running {
		panic("sim: shard window entered re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.pq) > 0 && !e.stopped {
		next := e.pq[0]
		if next.at > limit {
			break
		}
		e.pq.pop()
		e.now = next.at
		fn := next.fn
		e.recycle(next)
		e.executed++
		if fn != nil {
			fn()
		}
	}
}

// peek returns the time of the next scheduled event, if any.
func (e *Engine) peek() (Time, bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}
