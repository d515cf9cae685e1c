package sim

import (
	"fmt"
	"slices"
	"testing"
)

// refEngine is the reference the Engine is checked against: one slice kept
// sorted by (at, seq), with the engine's API semantics written out plainly.
type refEngine struct {
	now      Time
	seq      uint64
	q        []refEvent
	stopped  bool
	executed uint64
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (r *refEngine) at(t Time, fn func()) uint64 {
	t = max(t, r.now)
	r.seq++
	ev := refEvent{t, r.seq, fn}
	i, _ := slices.BinarySearchFunc(r.q, ev, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	r.q = slices.Insert(r.q, i, ev)
	return r.seq
}

func (r *refEngine) cancel(seq uint64) bool {
	i := slices.IndexFunc(r.q, func(ev refEvent) bool { return ev.seq == seq })
	if i < 0 {
		return false
	}
	r.q = slices.Delete(r.q, i, i+1)
	return true
}

// runWindow dispatches events due by limit, in order, until Stop.
func (r *refEngine) runWindow(limit Time) {
	for !r.stopped && len(r.q) > 0 && r.q[0].at <= limit {
		ev := r.q[0]
		r.q = slices.Delete(r.q, 0, 1)
		r.now = ev.at
		r.executed++
		ev.fn()
	}
}

// runUntil is runWindow, then the clock rests at the deadline unless Stop
// left events behind.
func (r *refEngine) runUntil(deadline Time) {
	r.stopped = false
	r.runWindow(deadline)
	if (!r.stopped || len(r.q) == 0) && r.now < deadline && deadline != MaxTime {
		r.now = deadline
	}
}

func (r *refEngine) wait(register func(wake func())) {
	woken, looping := false, false
	register(func() {
		woken = true
		if looping {
			looping = false
			r.stopped = true
		}
	})
	looping = !woken
	for !woken {
		r.runUntil(MaxTime)
	}
}

// queue is the surface the differential script drives. Events are named by
// handles, their schedule order in the script, so both sides can be told
// to cancel "the same" event; handle -1 is the zero EventID.
type queue interface {
	now() Time
	pending() int
	executed() uint64
	at(t Time, fn func()) int
	cancel(h int) bool
	runUntil(t Time)
	stop()
	wait(register func(wake func()))
}

type engineQueue struct {
	e     *Engine
	ids   []EventID
	reach reachStats
}

func (q *engineQueue) now() Time        { return q.e.Now() }
func (q *engineQueue) pending() int     { return q.e.Pending() }
func (q *engineQueue) executed() uint64 { return q.e.Executed() }
func (q *engineQueue) runUntil(t Time)  { q.e.RunUntil(t) }
func (q *engineQueue) stop()            { q.e.Stop() }
func (q *engineQueue) wait(r func(func())) {
	q.e.Wait(r)
}
func (q *engineQueue) at(t Time, fn func()) int {
	q.ids = append(q.ids, q.e.At(t, fn))
	q.reach.maxWheel = max(q.reach.maxWheel, q.e.wlen)
	q.reach.maxHeap = max(q.reach.maxHeap, len(q.e.heap))
	return len(q.ids) - 1
}
func (q *engineQueue) cancel(h int) bool {
	if h < 0 {
		return q.e.Cancel(EventID{})
	}
	id := q.ids[h]
	e := q.e
	first := e.first.seq == id.seq
	inHeap := slices.ContainsFunc(e.heap, func(s slot) bool { return s.seq == id.seq })
	inLane := slices.ContainsFunc(e.lane[e.lhead:], func(s slot) bool { return s.seq == id.seq })
	if !e.Cancel(id) {
		return false
	}
	switch {
	case first:
		q.reach.cancelFirst++
	case inHeap:
		q.reach.cancelHeap++
	case inLane:
		q.reach.cancelLane++
	default:
		q.reach.cancelWheel++
	}
	return true
}

type refQueue struct {
	r    refEngine
	seqs []uint64
}

func (q *refQueue) now() Time        { return q.r.now }
func (q *refQueue) pending() int     { return len(q.r.q) }
func (q *refQueue) executed() uint64 { return q.r.executed }
func (q *refQueue) runUntil(t Time)  { q.r.runUntil(t) }
func (q *refQueue) stop()            { q.r.stopped = true }
func (q *refQueue) wait(r func(func())) {
	q.r.wait(r)
}
func (q *refQueue) at(t Time, fn func()) int {
	q.seqs = append(q.seqs, q.r.at(t, fn))
	return len(q.seqs) - 1
}
func (q *refQueue) cancel(h int) bool {
	if h < 0 {
		return false
	}
	return q.r.cancel(q.seqs[h])
}

// script is one side of the differential run: a queue, the seeded draws
// its callbacks make, and the log of what fired and what cancels returned.
type script struct {
	q          queue
	rng        *RNG
	log        []string
	handles    int
	lastCancel int
	nowake     map[int]bool // wake events, which random cancels must spare
	maxSched   int
	scale      int  // the longest delay of the across-buckets draws
	far        Time // the due time of the last draw past the horizon
}

// wheelHorizon is how far ahead of the clock's bucket the wheel admits
// events.
const wheelHorizon = wheelBuckets << wheelShift

func newScript(q queue, seed uint64) *script {
	return &script{q: q, rng: NewRNG(seed), nowake: map[int]bool{}, maxSched: 4000, scale: 4 * wheelHorizon}
}

// later draws a timed event's due time: usually 1 to short ns ahead, most
// often inside the clock's bucket, else up to scale ahead (across
// buckets), the due time of the last draw past the horizon (a tie between
// a heap event and a later wheel event), in a bucket 1023, 1024 or 1025
// ahead of the clock's (the last the wheel admits and the first two it
// does not), or past the wheel's horizon.
func (s *script) later(short int) Time {
	now := s.q.now()
	switch k := s.rng.Intn(20); {
	case k < 12:
		return now.Add(Duration(1 + s.rng.Intn(short)))
	case k < 15:
		return now.Add(Duration(1 + s.rng.Intn(s.scale)))
	case k < 16 && s.far > now:
		return s.far
	case k < 18:
		b := now>>wheelShift + Time(wheelBuckets-1+s.rng.Intn(3))
		return b<<wheelShift + Time(s.rng.Intn(1<<wheelShift))
	default:
		s.far = now.Add(Duration(wheelHorizon + s.rng.Intn(3*wheelHorizon)))
		return s.far
	}
}

func (s *script) schedule(t Time) int {
	var h int
	h = s.q.at(t, func() { s.fire(h) })
	s.handles++
	return h
}

// fire is every scheduled event's callback: it logs the event, then draws
// what the event does to its own queue.
func (s *script) fire(h int) {
	s.log = append(s.log, fmt.Sprintf("fire %d @%d", h, s.q.now()))
	switch k := s.rng.Intn(20); {
	case s.handles >= s.maxSched:
	case k < 4:
		s.schedule(s.q.now())
	case k < 8:
		s.schedule(s.later(40))
	case k < 10:
		s.schedule(s.q.now().Add(-Duration(s.rng.Intn(5))))
	case k < 12:
		s.cancelRandom()
	case k < 13:
		s.cancelBurst()
	case k == 13:
		s.q.stop()
	}
}

// cancelRandom cancels a recent event (most likely still queued), the
// last one cancelled again, any event so far, or the zero EventID.
func (s *script) cancelRandom() {
	h := -1
	switch k := s.rng.Intn(8); {
	case s.handles == 0 || k == 0:
	case k < 5:
		h = s.handles - 1 - s.rng.Intn(min(s.handles, 12))
	case k == 5:
		h = s.lastCancel
	default:
		h = s.rng.Intn(s.handles)
	}
	s.lastCancel = h
	if s.nowake[h] {
		return
	}
	s.log = append(s.log, fmt.Sprintf("cancel %d = %v", h, s.q.cancel(h)))
}

// cancelBurst cancels up to the eight latest events, enough to make the
// cancelled ones the majority of a short queue.
func (s *script) cancelBurst() {
	for h := s.handles - 1; h >= max(0, s.handles-8); h-- {
		if !s.nowake[h] {
			s.log = append(s.log, fmt.Sprintf("cancel %d = %v", h, s.q.cancel(h)))
		}
	}
}

// step applies one top-level operation, drawn from the script's own RNG.
func (s *script) step() {
	now := s.q.now()
	switch k := s.rng.Intn(16); {
	case k < 3:
		s.schedule(now)
	case k < 7:
		s.schedule(s.later(60))
	case k < 8:
		s.schedule(now.Add(-Duration(1 + s.rng.Intn(10))))
	case k < 10:
		s.cancelRandom()
	case k < 11:
		s.cancelBurst()
	case k < 14:
		s.q.runUntil(s.deadline(50))
	case k < 15:
		s.q.stop()
	default:
		d := Duration(s.rng.Intn(30))
		inside := s.rng.Intn(4) == 0
		s.q.wait(func(wake func()) {
			if inside {
				wake()
				return
			}
			var h int
			h = s.q.at(now.Add(d), func() {
				s.log = append(s.log, fmt.Sprintf("wake %d @%d", h, s.q.now()))
				wake()
			})
			s.handles++
			s.nowake[h] = true
		})
	}
}

// deadline draws a RunUntil deadline: usually under short ns ahead, else
// up to scale ahead, or more than one wheel horizon ahead.
func (s *script) deadline(short int) Time {
	now := s.q.now()
	switch k := s.rng.Intn(8); {
	case k < 6:
		return now.Add(Duration(s.rng.Intn(short)))
	case k < 7:
		return now.Add(Duration(s.rng.Intn(s.scale)))
	default:
		return now.Add(Duration(wheelHorizon + s.rng.Intn(2*wheelHorizon)))
	}
}

func (s *script) state() string {
	return fmt.Sprintf("now %d pending %d executed %d", s.q.now(), s.q.pending(), s.q.executed())
}

// TestEngineMatchesReference drives the Engine and the sorted-slice
// reference through the same random schedules, cancels (of live, fired,
// cancelled and zero IDs), past-time At calls, RunUntil deadlines, Stops
// and Waits. What fires, in which order and at which time, what each
// cancel returns, and Now, Pending and Executed must agree after every
// step. The delays and deadlines reach every part of the queue: the
// clock's own bucket, later buckets, the wheel's last bucket and the two
// past it, the heap, wheel events tied with heap events, and clock moves
// of more than one horizon; the test checks that live events were
// cancelled in each of first, the lane, the wheel and the heap.
func TestEngineMatchesReference(t *testing.T) {
	var total reachStats
	for seed := uint64(1); seed <= 40; seed++ {
		r := matchReference(t, seed, 4*wheelHorizon, 600)
		total.add(r)
	}
	total.check(t)
}

// FuzzEngineMatchesReference runs the differential script of
// TestEngineMatchesReference for a seed and a delay scale, the longest of
// its across-buckets delays and clock moves.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint32(40))
	f.Add(uint64(2), uint32(1<<wheelShift))
	f.Add(uint64(3), uint32(20<<wheelShift))
	f.Add(uint64(4), uint32(wheelHorizon-1))
	f.Add(uint64(5), uint32(wheelHorizon+1<<wheelShift))
	f.Add(uint64(6), uint32(8*wheelHorizon))
	f.Fuzz(func(t *testing.T, seed uint64, scale uint32) {
		matchReference(t, seed, 1+int(scale%(16*wheelHorizon)), 300)
	})
}

// reachStats counts what a differential script made the engine do: live
// cancels of first, lane, wheel and heap events, and the deepest wheel and
// heap.
type reachStats struct {
	cancelFirst, cancelLane, cancelWheel, cancelHeap int
	maxWheel, maxHeap                                int
}

func (r *reachStats) add(o reachStats) {
	r.cancelFirst += o.cancelFirst
	r.cancelLane += o.cancelLane
	r.cancelWheel += o.cancelWheel
	r.cancelHeap += o.cancelHeap
	r.maxWheel = max(r.maxWheel, o.maxWheel)
	r.maxHeap = max(r.maxHeap, o.maxHeap)
}

// check fails t unless every kind of live cancel happened and both the
// wheel and the heap held more than one event.
func (r *reachStats) check(t *testing.T) {
	t.Helper()
	if r.cancelFirst == 0 || r.cancelLane == 0 || r.cancelWheel == 0 || r.cancelHeap == 0 ||
		r.maxWheel < 2 || r.maxHeap < 2 {
		t.Fatalf("the script did not reach every part of the queue: %+v", *r)
	}
}

// matchReference runs steps script steps and a final drain on the engine
// and the reference with one seed and delay scale, comparing them after
// each, and returns what the engine side reached.
func matchReference(t *testing.T, seed uint64, scale, steps int) reachStats {
	t.Helper()
	eq := &engineQueue{e: NewEngine()}
	eng := newScript(eq, seed)
	ref := newScript(&refQueue{}, seed)
	eng.scale, ref.scale = scale, scale
	for i := 0; i < steps; i++ {
		eng.step()
		ref.step()
		compareScripts(t, seed, i, eng, ref)
	}
	eng.q.runUntil(MaxTime)
	ref.q.runUntil(MaxTime)
	compareScripts(t, seed, -1, eng, ref)
	return eq.reach
}

func compareScripts(t *testing.T, seed uint64, step int, eng, ref *script) {
	t.Helper()
	if !slices.Equal(eng.log, ref.log) {
		i := 0
		for i < min(len(eng.log), len(ref.log)) && eng.log[i] == ref.log[i] {
			i++
		}
		t.Fatalf("seed %d step %d: logs diverge at entry %d:\nengine    %q\nreference %q",
			seed, step, i, eng.log[i:min(i+5, len(eng.log))], ref.log[i:min(i+5, len(ref.log))])
	}
	if a, b := eng.state(), ref.state(); a != b {
		t.Fatalf("seed %d step %d: engine %s, reference %s", seed, step, a, b)
	}
}

// refGroup is the reference for a Shards group: reference engines, one
// domain each, run window by window under the group's barrier protocol.
type refGroup struct {
	la      Duration
	engs    []*refEngine
	outbox  []refMsg
	xseq    []uint64
	windows uint64
}

type refMsg struct {
	at       Time
	src, dst int
	seq      uint64
	fn       func()
}

func (g *refGroup) post(src, dst int, at Time, fn func()) {
	g.outbox = append(g.outbox, refMsg{at, src, dst, g.xseq[src], fn})
	g.xseq[src]++
}

func (g *refGroup) inject() {
	slices.SortFunc(g.outbox, func(a, b refMsg) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if a.src != b.src {
			return a.src - b.src
		}
		return int(a.seq) - int(b.seq)
	})
	for _, m := range g.outbox {
		g.engs[m.dst].at(m.at, m.fn)
	}
	g.outbox = g.outbox[:0]
}

// horizon is the earliest queued event of any shard.
func (g *refGroup) horizon() (Time, bool) {
	h, ok := MaxTime, false
	for _, e := range g.engs {
		if len(e.q) > 0 && e.q[0].at < h {
			h, ok = e.q[0].at, true
		}
	}
	return h, ok
}

func (g *refGroup) runUntil(deadline Time) {
	for _, e := range g.engs {
		e.stopped = false
	}
	g.inject()
	for {
		h, ok := g.horizon()
		if !ok || h > deadline {
			break
		}
		limit := min(deadline, h+Time(g.la)-1)
		stopped := false
		for _, e := range g.engs {
			e.runWindow(limit)
			stopped = stopped || e.stopped
		}
		g.windows++
		g.inject()
		if stopped {
			break
		}
	}
	for _, e := range g.engs {
		if deadline != MaxTime && len(e.q) == 0 && e.now < deadline {
			e.now = deadline
		}
	}
}

// group is the surface the sharded differential script drives: per-shard
// queues plus the group's run loop and cross-shard posts.
type group interface {
	shard(i int) queue
	post(src, dst int, at Time, fn func())
	runUntil(t Time)
	windows() uint64
	horizon() (Time, bool)
}

type shardsGroup struct {
	s    *Shards
	doms []DomainID
	qs   []*engineQueue
}

func newShardsGroup(n int, la Duration) *shardsGroup {
	g := &shardsGroup{s: NewShards(n, la)}
	for i := 0; i < n; i++ {
		d, e := g.s.AddDomainAt(fmt.Sprint("d", i), i)
		g.doms = append(g.doms, d)
		g.qs = append(g.qs, &engineQueue{e: e})
	}
	return g
}

func (g *shardsGroup) shard(i int) queue { return g.qs[i] }
func (g *shardsGroup) post(src, dst int, at Time, fn func()) {
	g.s.PostAt(g.doms[src], g.doms[dst], at, fn)
}
func (g *shardsGroup) runUntil(t Time) { g.s.engines[0].RunUntil(t) }
func (g *shardsGroup) windows() uint64 { return g.s.Windows() }
func (g *shardsGroup) horizon() (Time, bool) {
	h, ok := MaxTime, false
	for _, e := range g.s.engines {
		if t, live := e.peek(); live && t < h {
			h, ok = t, true
		}
	}
	return h, ok
}

type refShards struct {
	g  refGroup
	qs []*refQueue
}

func newRefShards(n int, la Duration) *refShards {
	r := &refShards{g: refGroup{la: la, xseq: make([]uint64, n)}}
	for i := 0; i < n; i++ {
		q := &refQueue{}
		r.g.engs = append(r.g.engs, &q.r)
		r.qs = append(r.qs, q)
	}
	return r
}

func (r *refShards) shard(i int) queue { return r.qs[i] }
func (r *refShards) post(src, dst int, at Time, fn func()) {
	r.g.post(src, dst, at, fn)
}
func (r *refShards) runUntil(t Time)       { r.g.runUntil(t) }
func (r *refShards) windows() uint64       { return r.g.windows }
func (r *refShards) horizon() (Time, bool) { return r.g.horizon() }

// TestShardsMatchReference runs the differential script on a two-shard
// group: each shard's events schedule, cancel and stop as in
// TestEngineMatchesReference, and also post to the other shard one
// lookahead or more ahead. Besides the logs and each shard's Now, Pending
// and Executed, the group's window count and the horizon the shards' peeks
// report must match the reference after every step: a lane holding only
// cancelled events, or a cancelled heap top, must not pull the horizon
// earlier than the earliest live event.
func TestShardsMatchReference(t *testing.T) {
	const la = 20
	var total reachStats
	for seed := uint64(1); seed <= 30; seed++ {
		sg := newShardsGroup(2, la)
		eng := newGroupScript(sg, seed)
		ref := newGroupScript(newRefShards(2, la), seed)
		for i := 0; i < 400; i++ {
			eng.step()
			ref.step()
			compareGroups(t, seed, i, eng, ref)
		}
		eng.g.runUntil(MaxTime)
		ref.g.runUntil(MaxTime)
		compareGroups(t, seed, -1, eng, ref)
		for _, q := range sg.qs {
			total.add(q.reach)
		}
	}
	total.check(t)
}

// groupScript is one side of the sharded differential run: a script per
// shard, sharing one log, plus the group.
type groupScript struct {
	g   group
	sc  []*script
	rng *RNG
	end Time // the latest RunUntil deadline so far
}

func newGroupScript(g group, seed uint64) *groupScript {
	gs := &groupScript{g: g, rng: NewRNG(seed)}
	for i := 0; i < 2; i++ {
		s := newScript(g.shard(i), seed*7+uint64(i))
		s.maxSched = 1500
		gs.sc = append(gs.sc, s)
	}
	return gs
}

// post sends a message from shard src to the other shard, due la to 3·la
// after src's clock; on arrival it logs and fires like a local event.
func (gs *groupScript) post(src int, la Duration) {
	s := gs.sc[src]
	dst := 1 - src
	at := s.q.now().Add(la + Duration(s.rng.Intn(int(2*la))))
	gs.g.post(src, dst, at, func() {
		d := gs.sc[dst]
		d.log = append(d.log, fmt.Sprintf("arrive from %d @%d", src, d.q.now()))
		if d.rng.Intn(3) == 0 && d.handles < d.maxSched {
			gs.post(dst, la)
		}
		d.fire(-1)
	})
}

func (gs *groupScript) step() {
	const la = 20
	i := gs.rng.Intn(2)
	s := gs.sc[i]
	switch k := gs.rng.Intn(10); {
	case k < 2:
		s.schedule(s.q.now().Add(Duration(s.rng.Intn(60))))
	case k < 3:
		s.schedule(s.later(60))
	case k < 4:
		s.cancelRandom()
	case k < 5:
		s.cancelBurst()
	case k < 7:
		gs.post(i, la)
	case k < 8:
		s.q.stop()
	default:
		if gs.rng.Intn(8) == 0 {
			gs.end += Time(wheelHorizon + gs.rng.Intn(2*wheelHorizon))
		} else {
			gs.end += Time(gs.rng.Intn(80))
		}
		gs.g.runUntil(gs.end)
	}
}

func compareGroups(t *testing.T, seed uint64, step int, eng, ref *groupScript) {
	t.Helper()
	for i := range eng.sc {
		compareScripts(t, seed*100+uint64(i), step, eng.sc[i], ref.sc[i])
	}
	if a, b := eng.g.windows(), ref.g.windows(); a != b {
		t.Fatalf("seed %d step %d: %d windows, reference %d", seed, step, a, b)
	}
	ah, aok := eng.g.horizon()
	bh, bok := ref.g.horizon()
	if ah != bh || aok != bok {
		t.Fatalf("seed %d step %d: horizon %v (%v), reference %v (%v)", seed, step, ah, aok, bh, bok)
	}
}
