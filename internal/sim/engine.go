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
// a Shards group (see shard.go): each shard has its own event queue, the
// group runs the shards window by window on the caller's goroutine, and
// cross-shard interactions travel as time-stamped messages under
// conservative-lookahead barrier synchronization.
package sim

import (
	"fmt"
	"math"
	"slices"
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

// slot is one queued event: its time, its schedule sequence (the
// tie-breaker between equal times) and its callback.
type slot struct {
	at  Time
	seq uint64
	fn  func()
}

// before is the engine's total event order: time, then schedule sequence.
func (a *slot) before(b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// EventID identifies a scheduled event so it can be cancelled. It is the
// event's place (time, sequence) in the engine's total order, so an ID
// whose event has fired or been cancelled cancels nothing. The zero
// EventID names no event.
type EventID struct {
	at  Time
	seq uint64
}

// eventHeap is a binary min-heap of slots held by value: a sift moves
// slots within one array and dereferences nothing.
type eventHeap []slot

// push adds s and restores heap order, moving the hole rather than
// swapping.
func (h *eventHeap) push(s slot) {
	*h = append(*h, s)
	hp := *h
	i := len(hp) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&hp[p]) {
			break
		}
		hp[i] = hp[p]
		i = p
	}
	hp[i] = s
}

// pop removes and returns the minimum slot.
func (h *eventHeap) pop() slot {
	hp := *h
	top := hp[0]
	n := len(hp) - 1
	last := hp[n]
	hp[n] = slot{}
	*h = hp[:n]
	if n > 0 {
		hp[:n].down(0, last)
	}
	return top
}

// down places s at index i and sifts it toward the leaves.
func (h eventHeap) down(i int, s slot) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&s) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = s
}

// Engine is a discrete-event simulation kernel.
//
// Events due at the current instant wait in a FIFO lane; later ones wait in
// the heap. Heap events due at time T were scheduled before the clock
// reached T, so their sequence numbers are below every lane event's at T:
// the loop runs the heap's events due now, then the lane, and only then
// advances the clock. A cancel only marks the event's sequence number
// dead; the loop skips dead events, and the queue is compacted once they
// are the majority of it.
//
// The zero value is not usable; call NewEngine (or build a Shards group and
// register domains, which yields one engine per shard).
type Engine struct {
	now      Time
	seq      uint64 // last issued sequence number; 0 names no event
	last     uint64 // sequence number of the last dispatched event
	heap     eventHeap
	lane     []slot // events due now, in schedule order, from lhead on
	lhead    int
	dead     []uint64 // cancel marks: bit i is sequence number deadBase+i
	deadBase uint64   // no queued event's sequence number is below it
	ndead    int      // cancelled events still queued
	running  bool
	stopped  bool
	executed uint64 // events dispatched (stats)

	// group links this engine to a Shards front end; nil for a plain
	// single-loop engine.
	group *Shards
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled (uncancelled) events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.lane) - e.lhead - e.ndead }

// Executed reports the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

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
	e.seq++
	if t <= e.now {
		e.lane = append(e.lane, slot{e.now, e.seq, fn})
		return EventID{e.now, e.seq}
	}
	e.heap.push(slot{t, e.seq, fn})
	return EventID{t, e.seq}
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually removed.
func (e *Engine) Cancel(id EventID) bool {
	// Events run in (at, seq) order, so one at or before the last
	// dispatched event has fired or been skipped; no queued event's seq
	// is below deadBase.
	if id.at < e.now || id.at == e.now && id.seq <= e.last ||
		id.seq < e.deadBase || e.isDead(id.seq) {
		return false
	}
	w := int((id.seq - e.deadBase) / 64)
	if n := len(e.dead); w >= n {
		e.dead = slices.Grow(e.dead, w+1-n)[:w+1]
		clear(e.dead[n:])
	}
	e.dead[w] |= 1 << ((id.seq - e.deadBase) % 64)
	e.ndead++
	if 2*e.ndead > len(e.heap)+len(e.lane)-e.lhead {
		e.compact()
	}
	return true
}

// isDead reports whether the queued event with sequence number seq was
// cancelled.
func (e *Engine) isDead(seq uint64) bool {
	i := seq - e.deadBase
	return i/64 < uint64(len(e.dead)) && e.dead[i/64]&(1<<(i%64)) != 0
}

// compact drops the cancelled events from the queue, restores heap order
// and raises deadBase to the oldest queued event, dropping the marks
// below it once they are half of them.
func (e *Engine) compact() {
	low := e.seq + 1
	// keep moves the live events of q[from:] to the front of q and
	// clears the rest.
	keep := func(q []slot, from int) []slot {
		out := q[:0]
		for _, s := range q[from:] {
			if !e.isDead(s.seq) {
				out = append(out, s)
				low = min(low, s.seq)
			}
		}
		clear(q[len(out):])
		return out
	}
	e.heap = keep(e.heap, 0)
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.heap.down(i, e.heap[i])
	}
	e.lane, e.lhead = keep(e.lane, e.lhead), 0
	e.ndead = 0
	if k := int((low - e.deadBase) / 64); k > 0 && 2*k >= len(e.dead) {
		e.dead = e.dead[:copy(e.dead, e.dead[min(k, len(e.dead)):])]
		e.deadBase += uint64(k) * 64
	}
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
		if e.Pending() == 0 {
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
// group: every shard's loop runs under the group's barrier protocol, and
// RunUntil returns when all shards have drained up to the deadline.
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
	for !e.stopped && e.step(deadline) {
	}
	if (!e.stopped || e.Pending() == 0) && e.now < deadline && deadline != MaxTime {
		e.now = deadline
	}
	return e.now
}

// runWindow executes events with time ≤ limit and returns without advancing
// the clock past the last executed event. It is the per-shard kernel step the
// Shards barrier loop drives; unlike RunUntil it neither resets the stopped
// flag (the group owns it) nor advances the clock to an idle limit (a shard's
// clock must rest on real work so cross-shard arrivals are never "in the
// past"). It installs no deferred handler: the group's run clears the
// running flag if an event panics.
func (e *Engine) runWindow(limit Time) {
	if e.running {
		panic("sim: shard window entered re-entrantly")
	}
	e.running = true
	for !e.stopped && e.step(limit) {
	}
	e.running = false
}

// step dispatches the next live event due at or before limit and reports
// whether there was one: the heap's events due now, then the lane, then
// the heap's next instant.
func (e *Engine) step(limit Time) bool {
	for e.now <= limit {
		var s slot
		switch {
		case len(e.heap) > 0 && e.heap[0].at == e.now:
			s = e.heap.pop()
		case e.lhead < len(e.lane):
			s = e.popLane()
		case len(e.heap) > 0 && e.heap[0].at <= limit:
			s = e.heap.pop()
		default:
			return false
		}
		if e.ndead > 0 && e.isDead(s.seq) {
			e.ndead--
			continue
		}
		e.now, e.last = s.at, s.seq
		e.executed++
		if s.fn != nil {
			s.fn()
		}
		return true
	}
	return false
}

// popLane removes and returns the lane's front event, resetting the lane
// once it drains.
func (e *Engine) popLane() slot {
	s := e.lane[e.lhead]
	e.lane[e.lhead].fn = nil
	e.lhead++
	if e.lhead == len(e.lane) {
		e.lane, e.lhead = e.lane[:0], 0
	}
	return s
}

// peek returns the time of the next live event, if any, dropping the
// cancelled events in front of it.
func (e *Engine) peek() (Time, bool) {
	for e.lhead < len(e.lane) {
		if e.ndead == 0 || !e.isDead(e.lane[e.lhead].seq) {
			return e.now, true
		}
		e.popLane()
		e.ndead--
	}
	for len(e.heap) > 0 {
		if e.ndead == 0 || !e.isDead(e.heap[0].seq) {
			return e.heap[0].at, true
		}
		e.heap.pop()
		e.ndead--
	}
	return 0, false
}
