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
// The event queue holds events by value in three tiers: a FIFO lane for
// events due at the current instant, a timing wheel of 512 ns buckets for
// events due within 524 µs, where schedule and dispatch cost O(1), and a
// binary heap for events due later. The earliest timed event waits apart,
// ahead of the wheel and the heap. The loop merges them into the one
// (time, sequence) order.
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
	"math/bits"
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

// The wheel's geometry: 1024 buckets of 512 ns, a horizon of 524 µs. On
// dk-hw-rand timed events are scheduled 104 ns to 146 µs ahead, most of
// them 104 ns to 17 µs, and 17% more than 65 µs ahead (bookings behind
// busy stations), so every one of them fits. A 128 ns × 512 wheel left
// that 17% in the heap. The wheel costs 8 KB of bucket heads per engine.
// The geometry is fixed, not a setting: it decides no event's order, only
// where an event waits.
const (
	wheelShift   = 9 // a bucket spans 1<<wheelShift ns
	wheelBuckets = 1024
	wheelMask    = wheelBuckets - 1
)

// wheelNode is one wheel event, linked into its bucket's chain by index.
type wheelNode struct {
	slot
	next int32 // the next node in the chain, or 0 at its end
}

// bucket is one wheel bucket: a chain of nodes sorted by (at, seq).
type bucket struct{ head, tail int32 }

// Engine is a discrete-event simulation kernel.
//
// Events due at the current instant wait in a FIFO lane. The earliest
// later event is held by value in first; the rest wait in a timing wheel
// if they are due within its horizon and in a binary heap otherwise.
// Timed events due at time T were scheduled before the clock reached T,
// so their sequence numbers are below every lane event's at T: the loop
// runs the timed events due now, then the lane, and only then advances
// the clock. A cancel only marks the event's sequence number dead; the
// loop skips dead events, and the queue is compacted once they are the
// majority of it.
//
// The wheel admits an event due at t when its bucket number t>>wheelShift
// is fewer than wheelBuckets ahead of the clock's, and chains it in bucket
// (t>>wheelShift)&wheelMask. Every wheel event is due at or after the
// clock, so the buckets ahead of the clock's never alias, and the first
// occupied bucket from the clock's on holds the wheel's earliest events.
// An occupancy bitmap finds it. Heap events stay in the heap as the clock
// approaches them; refilling first takes the earlier of the wheel's first
// event and the heap's top. Holding first by value keeps a queue one
// timed event deep, as a QD1 request chain's is, out of the wheel.
//
// The zero value is not usable; call NewEngine (or build a Shards group and
// register domains, which yields one engine per shard).
type Engine struct {
	now      Time
	seq      uint64      // last issued sequence number; 0 names no event
	last     uint64      // sequence number of the last dispatched event
	first    slot        // the earliest timed event; seq 0 when there is none
	nodes    []wheelNode // node 0 is the chains' nil
	free     int32       // free nodes, linked by next
	wlen     int         // events in the wheel
	heap     eventHeap   // timed events past the wheel's horizon
	lane     []slot      // events due now, in schedule order, from lhead on
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

	// The bucket heads come last, so the fields above share cache lines.
	occ   [wheelBuckets / 64]uint64 // bit b: bucket b is not empty
	wheel [wheelBuckets]bucket
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{nodes: make([]wheelNode, 1)} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled (uncancelled) events.
func (e *Engine) Pending() int { return e.queued() - e.ndead }

// queued counts the events in the queue, cancelled ones included.
func (e *Engine) queued() int {
	n := e.wlen + len(e.heap) + len(e.lane) - e.lhead
	if e.first.seq != 0 {
		n++
	}
	return n
}

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
	s := slot{t, e.seq, fn}
	switch {
	case t <= e.now:
		s.at = e.now
		e.lane = append(e.lane, s)
	case e.first.seq == 0:
		e.first = s
	case t < e.first.at:
		e.enqueue(e.first)
		e.first = s
	default:
		e.enqueue(s)
	}
	return EventID{s.at, s.seq}
}

// enqueue puts a timed event other than first in the wheel, or in the
// heap if it is due past the wheel's horizon.
func (e *Engine) enqueue(s slot) {
	if uint64(s.at>>wheelShift-e.now>>wheelShift) >= wheelBuckets {
		e.heap.push(s)
		return
	}
	i := e.free
	if i == 0 {
		e.nodes = append(e.nodes, wheelNode{})
		i = int32(len(e.nodes) - 1)
	} else {
		e.free = e.nodes[i].next
	}
	e.nodes[i] = wheelNode{slot: s}
	e.wlen++
	b := int(s.at>>wheelShift) & wheelMask
	bk := &e.wheel[b]
	switch {
	case bk.tail == 0:
		bk.head, bk.tail = i, i
		e.occ[b/64] |= 1 << (b % 64)
	case e.nodes[bk.tail].before(&s):
		e.nodes[bk.tail].next = i
		bk.tail = i
	default:
		// s sorts before the tail (a demoted first sorts before every
		// node): link it after the last node before it.
		p := &bk.head
		for e.nodes[*p].before(&s) {
			p = &e.nodes[*p].next
		}
		e.nodes[i].next = *p
		*p = i
	}
}

// firstBucket returns the first occupied bucket from bucket b on, in the
// wheel's circular order. The wheel must not be empty.
func (e *Engine) firstBucket(b int) int {
	w := b / 64
	m := e.occ[w] &^ (1<<(b%64) - 1)
	for m == 0 {
		w = (w + 1) % len(e.occ)
		m = e.occ[w]
	}
	return w*64 + bits.TrailingZeros64(m)
}

// pull removes and returns the earliest event of the wheel and the heap,
// or the zero slot if both are empty. Every wheel event is due at or after
// from.
func (e *Engine) pull(from Time) slot {
	if e.wlen == 0 {
		if len(e.heap) == 0 {
			return slot{}
		}
		return e.heap.pop()
	}
	b := e.firstBucket(int(from>>wheelShift) & wheelMask)
	bk := &e.wheel[b]
	i := bk.head
	n := &e.nodes[i]
	if len(e.heap) > 0 && e.heap[0].before(&n.slot) {
		return e.heap.pop()
	}
	s := n.slot
	bk.head = n.next
	n.fn, n.next, e.free = nil, e.free, i
	e.wlen--
	if bk.head == 0 {
		bk.tail = 0
		e.occ[b/64] &^= 1 << (b % 64)
	}
	return s
}

// popFirst removes and returns first, refilling it from the wheel and the
// heap.
func (e *Engine) popFirst() slot {
	s := e.first
	e.first = e.pull(s.at)
	return s
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
	if 2*e.ndead > e.queued() {
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
// below it once they are half of them. It walks only the occupied
// buckets.
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
	// The occupied buckets from the clock's on, until every wheel event
	// has been seen.
	for left, b := e.wlen, int(e.now>>wheelShift)&wheelMask; left > 0; b = (b + 1) & wheelMask {
		b = e.firstBucket(b)
		bk := &e.wheel[b]
		i := bk.head
		bk.head, bk.tail = 0, 0
		p := &bk.head
		for ; i != 0; left-- {
			n := &e.nodes[i]
			next := n.next
			if e.isDead(n.seq) {
				n.fn, n.next, e.free = nil, e.free, i
				e.wlen--
			} else {
				*p = i
				p = &n.next
				bk.tail = i
				low = min(low, n.seq)
			}
			i = next
		}
		*p = 0
		if bk.tail == 0 {
			e.occ[b/64] &^= 1 << (b % 64)
		}
	}
	if e.first.seq != 0 && e.isDead(e.first.seq) {
		e.first = e.pull(e.now)
	}
	if e.first.seq != 0 {
		low = min(low, e.first.seq)
	}
	e.ndead = 0
	if k := int((low - e.deadBase) / 64); k > 0 && 2*k >= len(e.dead) {
		e.dead = e.dead[:copy(e.dead, e.dead[min(k, len(e.dead)):])]
		e.deadBase += uint64(k) * 64
	}
}

// idleTo moves the clock of an engine with no live event forward to t.
// The cancelled events still queued are dropped first: one due before t
// would sit in a wheel bucket behind the clock, where a later event
// could alias it.
func (e *Engine) idleTo(t Time) {
	if e.ndead > 0 && e.Pending() == 0 {
		e.compact()
	}
	e.now = t
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
		e.idleTo(deadline)
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
// whether there was one: the timed events due now, then the lane, then
// the next timed instant.
func (e *Engine) step(limit Time) bool {
	for e.now <= limit {
		var s slot
		switch {
		case e.first.seq != 0 && e.first.at == e.now:
			s = e.popFirst()
		case e.lhead < len(e.lane):
			s = e.popLane()
		case e.first.seq != 0 && e.first.at <= limit:
			s = e.popFirst()
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
	for e.first.seq != 0 {
		if e.ndead == 0 || !e.isDead(e.first.seq) {
			return e.first.at, true
		}
		e.popFirst()
		e.ndead--
	}
	return 0, false
}
