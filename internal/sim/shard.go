package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

// DomainID names a topology domain (an OSD group, a rack, the client+card
// host) registered with a Shards group. Domains are the unit of state
// confinement: all simulated state belongs to exactly one domain, and model
// code running in one domain may only touch another domain's state through
// PostAt messages.
type DomainID int32

// Shards is the topology-aware front end over a set of per-shard Engines.
//
// The discrete-event simulation is partitioned into domains; each domain is
// pinned to one shard, and each shard is an ordinary single-threaded Engine.
// Shards advance in lockstep windows of one lookahead each under conservative
// synchronization: because every cross-domain message is delivered at least
// one lookahead after it is sent (the minimum link latency of the modelled
// network), all events inside the window [W, W+L) are causally independent
// across shards and may run in parallel. At each window barrier the
// accumulated cross-shard messages are merged in the canonical
// (time, source domain, source sequence) order and injected into their
// destination shards.
//
// Determinism: a (seed, topology) pair replays bit-identically for any shard
// count and any worker count. Within a shard, events run in strict
// (time, seq) order as always; the canonical merge fixes the relative order
// of cross-shard arrivals independently of which shard ran first, and window
// boundaries are derived from the global event horizon, which is itself
// invariant. The same enumeration-order discipline the experiment runner
// uses (assemble in canonical order, never completion order) applies here at
// every barrier.
type Shards struct {
	lookahead Duration
	engines   []*Engine
	domains   []domainInfo
	outbox    [][]xmsg // per shard, owned by that shard's worker during a window
	pending   []xmsg   // barrier merge scratch
	running   bool
	rr        int // round-robin cursor for AddDomain
	// faults[sh] is the panic recovered from shard sh's last window, if
	// any; only the worker running shard sh writes its slot.
	faults []*shardPanic
	// Stats.
	windows uint64
	posted  uint64
	busy    []time.Duration
}

type domainInfo struct {
	name  string
	shard int32
	xseq  uint64 // per-domain cross-shard send counter: canonical tie-break
}

// xmsg is one cross-shard message awaiting barrier delivery.
type xmsg struct {
	at       Time
	src      DomainID
	seq      uint64
	dstShard int32
	fn       func()
}

// NewShards returns a group of n shard engines with the given conservative
// lookahead — the guaranteed minimum delay of any cross-domain message,
// typically the minimum link latency of the modelled network. lookahead must
// be positive; n < 1 is treated as 1.
func NewShards(n int, lookahead Duration) *Shards {
	if n < 1 {
		n = 1
	}
	if lookahead <= 0 {
		panic("sim: Shards lookahead must be positive")
	}
	s := &Shards{
		lookahead: lookahead,
		engines:   make([]*Engine, n),
		outbox:    make([][]xmsg, n),
		busy:      make([]time.Duration, n),
		faults:    make([]*shardPanic, n),
	}
	for i := range s.engines {
		e := NewEngine()
		e.group = s
		e.shard = i
		s.engines[i] = e
	}
	return s
}

// N returns the shard count.
func (s *Shards) N() int { return len(s.engines) }

// Lookahead returns the conservative lookahead bound.
func (s *Shards) Lookahead() Duration { return s.lookahead }

// AddDomain registers a domain, assigning it to a shard round-robin, and
// returns its ID plus the engine it runs on. All of the domain's state must
// live on that engine.
func (s *Shards) AddDomain(name string) (DomainID, *Engine) {
	shard := s.rr
	s.rr = (s.rr + 1) % len(s.engines)
	return s.AddDomainAt(name, shard)
}

// AddDomainAt registers a domain on an explicit shard (the "home shard"
// idiom: clients and the card live on shard 0, OSD groups spread over the
// rest).
func (s *Shards) AddDomainAt(name string, shard int) (DomainID, *Engine) {
	if shard < 0 || shard >= len(s.engines) {
		panic(fmt.Sprintf("sim: AddDomainAt shard %d out of range [0,%d)", shard, len(s.engines)))
	}
	if s.running {
		panic("sim: AddDomain while running")
	}
	id := DomainID(len(s.domains))
	s.domains = append(s.domains, domainInfo{name: name, shard: int32(shard)})
	return id, s.engines[shard]
}

// Engine returns the shard engine domain d is pinned to.
func (s *Shards) Engine(d DomainID) *Engine { return s.engines[s.domains[d].shard] }

// Domains returns the number of registered domains.
func (s *Shards) Domains() int { return len(s.domains) }

// PostAt delivers fn to domain dst at absolute time at, as a cross-shard
// event. It must be called from src's shard context (inside one of src's
// events) or during single-threaded setup before Run. The arrival must
// honour the conservative bound: at least one lookahead after the source
// clock, or the window protocol could not have isolated the shards — a
// violation panics rather than silently corrupting determinism.
//
// Messages between domains that happen to share a shard take the same path:
// delivery order at equal timestamps is fixed by the canonical
// (time, source domain, source sequence) merge, never by shard placement, so
// re-partitioning domains over more or fewer shards cannot reorder them.
func (s *Shards) PostAt(src, dst DomainID, at Time, fn func()) {
	di := &s.domains[src]
	eng := s.engines[di.shard]
	if min := eng.now.Add(s.lookahead); at < min {
		panic(fmt.Sprintf("sim: PostAt %v violates lookahead %v (src %s now %v)",
			at, s.lookahead, di.name, eng.now))
	}
	m := xmsg{at: at, src: src, seq: di.xseq, dstShard: s.domains[dst].shard, fn: fn}
	di.xseq++
	s.outbox[di.shard] = append(s.outbox[di.shard], m)
}

// Post delivers fn to domain dst after delay, which must be at least one
// lookahead. See PostAt.
func (s *Shards) Post(src, dst DomainID, delay Duration, fn func()) {
	s.PostAt(src, dst, s.engines[s.domains[src].shard].now.Add(delay), fn)
}

// inject merges all buffered cross-shard messages in canonical order and
// schedules them on their destination engines. Runs on the coordinator
// goroutine at a barrier (or before the first window), so it may touch every
// engine.
func (s *Shards) inject() {
	total := 0
	for _, ob := range s.outbox {
		total += len(ob)
	}
	if total == 0 {
		return
	}
	s.pending = s.pending[:0]
	for i, ob := range s.outbox {
		s.pending = append(s.pending, ob...)
		for j := range ob {
			ob[j].fn = nil
		}
		s.outbox[i] = ob[:0]
	}
	// (at, src, seq) is a total order: seq is per-domain monotonic, so no two
	// messages compare equal and the sort is deterministic regardless of
	// buffer concatenation order.
	slices.SortFunc(s.pending, cmpXmsg)
	s.posted += uint64(total)
	for i := range s.pending {
		m := &s.pending[i]
		s.engines[m.dstShard].At(m.at, m.fn)
		m.fn = nil
	}
}

// cmpXmsg is the canonical (at, src, seq) order of cross-shard messages.
func cmpXmsg(a, b xmsg) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.src != b.src:
		return cmp.Compare(a.src, b.src)
	default:
		return cmp.Compare(a.seq, b.seq)
	}
}

// Run executes the group until every shard drains (and no messages are in
// flight) or Stop is called on any shard engine. It returns the latest shard
// clock.
func (s *Shards) Run() Time {
	s.runUntil(MaxTime)
	var t Time
	for _, e := range s.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// runUntil is the barrier loop. Each iteration:
//
//  1. finds the global horizon W — the earliest pending event across all
//     shards (skipping empty stretches entirely, so an idle topology never
//     spins through windows);
//  2. runs every shard's events in [W, W+lookahead) — in parallel when the
//     host has cores to spare;
//  3. merges and injects the window's cross-shard messages (all of which
//     arrive at ≥ W+lookahead by the conservative bound).
//
// A group whose whole topology is one domain can never generate a
// cross-shard message, so the window clamp is skipped and the single active
// shard runs straight to the deadline — classic single-loop behavior, same
// event order, one barrier.
func (s *Shards) runUntil(deadline Time) {
	if s.running {
		panic("sim: Shards run re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	for _, e := range s.engines {
		e.stopped = false
	}
	s.inject() // setup-time posts

	// Serial runs (one P, or one shard) use no workers, so a run on an
	// idle or single-threaded group allocates nothing.
	var pool *windowWorkers
	if workers := min(runtime.GOMAXPROCS(0), len(s.engines)); workers > 1 {
		pool = s.startWorkers(workers)
		defer pool.stop()
	}

	solo := len(s.domains) <= 1
	for {
		horizon := MaxTime
		found := false
		for _, e := range s.engines {
			if t, ok := e.peek(); ok && (!found || t < horizon) {
				horizon = t
				found = true
			}
		}
		if !found || horizon > deadline {
			break
		}
		limit := deadline
		if !solo {
			wl := horizon + Time(s.lookahead) - 1
			if wl >= horizon && wl < limit {
				limit = wl
			}
		}
		if pool != nil {
			pool.run(limit)
		} else {
			for sh := range s.engines {
				s.faults[sh] = s.runShardWindow(sh, limit)
			}
		}
		for _, f := range s.faults {
			if f != nil {
				panic(f.String())
			}
		}
		s.windows++
		s.inject()
		stopped := false
		for _, e := range s.engines {
			if e.stopped {
				stopped = true
			}
		}
		if stopped {
			break
		}
	}
	if deadline != MaxTime {
		for _, e := range s.engines {
			if len(e.pq) == 0 && e.now < deadline {
				e.now = deadline
			}
		}
	}
}

// windowWorkers are one run's persistent window goroutines. Worker w owns
// shards w, w+n, ... so shard→worker assignment is static and per-shard
// state needs no further synchronization than the window barrier itself.
// A panic inside a shard's window is recovered into s.faults[sh] (a slot
// only that shard's worker writes) and re-raised by the coordinator after
// the barrier, so it never kills the process from a bare goroutine.
type windowWorkers struct {
	wake []chan Time
	wg   sync.WaitGroup
}

// startWorkers starts n window workers for one run of the barrier loop.
func (s *Shards) startWorkers(n int) *windowWorkers {
	p := &windowWorkers{wake: make([]chan Time, n)}
	for w := range p.wake {
		p.wake[w] = make(chan Time, 1)
		go func(w int) {
			for limit := range p.wake[w] {
				for sh := w; sh < len(s.engines); sh += n {
					s.faults[sh] = s.runShardWindow(sh, limit)
				}
				p.wg.Done()
			}
		}(w)
	}
	return p
}

// run executes one window on every worker and waits for the barrier.
func (p *windowWorkers) run(limit Time) {
	p.wg.Add(len(p.wake))
	for _, c := range p.wake {
		c <- limit
	}
	p.wg.Wait()
}

// stop ends the workers.
func (p *windowWorkers) stop() {
	for _, c := range p.wake {
		close(c)
	}
}

// shardPanic is a panic recovered from one shard's window, with the
// context needed to find its source: the shard, the domains pinned to it,
// the shard's virtual time and the panicking goroutine's stack.
type shardPanic struct {
	shard   int
	domains string
	at      Time
	val     any
	stack   []byte
}

func (f *shardPanic) String() string {
	return fmt.Sprintf("sim: shard %d (domains %s) panicked at %v: %v\n\nshard stack:\n%s",
		f.shard, f.domains, f.at, f.val, f.stack)
}

// runShardWindow runs shard sh's events up to limit and charges the wall
// time to its busy counter. A panic is recovered and returned, so the
// coordinator can re-raise it after the barrier with its context attached.
func (s *Shards) runShardWindow(sh int, limit Time) (fault *shardPanic) {
	e := s.engines[sh]
	start := time.Now()
	defer func() {
		s.busy[sh] += time.Since(start)
		if r := recover(); r != nil {
			fault = &shardPanic{shard: sh, domains: s.domainNames(sh), at: e.now, val: r, stack: debug.Stack()}
		}
	}()
	e.runWindow(limit)
	return nil
}

// domainNames lists the domains pinned to shard sh, comma-separated.
func (s *Shards) domainNames(sh int) string {
	var names []string
	for _, d := range s.domains {
		if int(d.shard) == sh {
			names = append(names, d.name)
		}
	}
	return strings.Join(names, ",")
}

// ShardStats is a per-shard utilization snapshot.
type ShardStats struct {
	Shard   int
	Domains int           // domains pinned to this shard
	Events  uint64        // events dispatched by this shard's engine
	Busy    time.Duration // wall-clock spent inside this shard's windows
}

// Stats returns per-shard utilization: how the topology's domains, events
// and wall-clock spread over the shards. Balanced Busy across shards is what
// turns shard count into wall-clock speedup.
func (s *Shards) Stats() []ShardStats {
	out := make([]ShardStats, len(s.engines))
	for i, e := range s.engines {
		out[i] = ShardStats{Shard: i, Events: e.executed, Busy: s.busy[i]}
	}
	for _, d := range s.domains {
		out[d.shard].Domains++
	}
	return out
}

// Windows returns how many barrier windows the group has executed.
func (s *Shards) Windows() uint64 { return s.windows }

// Posted returns how many cross-shard messages have been merged at barriers.
func (s *Shards) Posted() uint64 { return s.posted }
