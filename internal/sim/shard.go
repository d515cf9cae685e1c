package sim

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
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
// across shards. The group runs each shard's window in turn, in shard order,
// on the caller's goroutine. At each window barrier the accumulated
// cross-shard messages are merged in the canonical
// (time, source domain, source sequence) order and injected into their
// destination shards.
//
// Determinism: a (seed, topology) pair replays bit-identically for any shard
// count. Within a shard, events run in strict (time, seq) order as always;
// the canonical merge fixes the relative order of cross-shard arrivals
// independently of which shard posted first, and window boundaries are
// derived from the global event horizon, which is itself invariant. The same
// enumeration-order discipline the experiment runner uses (assemble in
// canonical order, never completion order) applies here at every barrier. A
// model that touched another domain's state directly, outside PostAt, would
// see it at a point that depends on shard placement, so its digest would
// change with the shard count.
type Shards struct {
	lookahead Duration
	engines   []*Engine
	domains   []domainInfo
	outbox    []xmsg // cross-shard messages posted since the last barrier
	running   bool
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
		busy:      make([]time.Duration, n),
	}
	for i := range s.engines {
		e := NewEngine()
		e.group = s
		s.engines[i] = e
	}
	return s
}

// AddDomainAt registers a domain on an explicit shard (the "home shard"
// idiom: clients and the card live on shard 0, OSD groups spread over the
// rest) and returns its ID plus the engine it runs on. All of the domain's
// state must live on that engine.
func (s *Shards) AddDomainAt(name string, shard int) (DomainID, *Engine) {
	if shard < 0 || shard >= len(s.engines) {
		panic(fmt.Sprintf("sim: AddDomainAt shard %d out of range [0,%d)", shard, len(s.engines)))
	}
	if s.running {
		panic("sim: AddDomainAt while running")
	}
	id := DomainID(len(s.domains))
	s.domains = append(s.domains, domainInfo{name: name, shard: int32(shard)})
	return id, s.engines[shard]
}

// Engine returns the shard engine domain d is pinned to.
func (s *Shards) Engine(d DomainID) *Engine { return s.engines[s.domains[d].shard] }

// PostAt delivers fn to domain dst at absolute time at, as a cross-shard
// event. It must be called from src's shard context (inside one of src's
// events) or during setup before Run. The arrival must honour the
// conservative bound: at least one lookahead after the source clock, or the
// window protocol could not have isolated the shards — a violation panics
// rather than silently corrupting determinism.
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
	s.outbox = append(s.outbox, xmsg{at: at, src: src, seq: di.xseq, dstShard: s.domains[dst].shard, fn: fn})
	di.xseq++
}

// inject merges all buffered cross-shard messages in canonical order and
// schedules them on their destination engines. It runs at a barrier (or
// before the first window), when no shard is mid-window.
func (s *Shards) inject() {
	if len(s.outbox) == 0 {
		return
	}
	// (at, src, seq) is a total order: seq is per-domain monotonic, so no two
	// messages compare equal and the sort is deterministic regardless of the
	// order the shards posted in.
	slices.SortFunc(s.outbox, cmpXmsg)
	s.posted += uint64(len(s.outbox))
	for i := range s.outbox {
		m := &s.outbox[i]
		s.engines[m.dstShard].At(m.at, m.fn)
		m.fn = nil
	}
	s.outbox = s.outbox[:0]
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
//  2. runs every shard's events in [W, W+lookahead), shard by shard;
//  3. merges and injects the window's cross-shard messages (all of which
//     arrive at ≥ W+lookahead by the conservative bound).
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
		if wl := horizon + Time(s.lookahead) - 1; wl >= horizon && wl < limit {
			limit = wl
		}
		stopped := false
		for sh, e := range s.engines {
			s.runShardWindow(sh, limit)
			stopped = stopped || e.stopped
		}
		s.windows++
		s.inject()
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

// runShardWindow runs shard sh's events up to limit and charges the wall
// time to its busy counter. A panic inside the window is re-raised with the
// context needed to find its source: the shard, the domains pinned to it,
// the shard's virtual time and the stack of the panicking event.
func (s *Shards) runShardWindow(sh int, limit Time) {
	e := s.engines[sh]
	start := time.Now()
	defer func() {
		s.busy[sh] += time.Since(start)
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: shard %d (domains %s) panicked at %v: %v\n\nshard stack:\n%s",
				sh, s.domainNames(sh), e.now, r, debug.Stack()))
		}
	}()
	e.runWindow(limit)
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
