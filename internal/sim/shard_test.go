package sim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
)

// shardModel is a synthetic multi-domain workload for determinism tests:
// nDomains domains ping messages at each other with seeded pseudo-random
// targets and delays, each domain folding everything it observes (virtual
// times, senders, local RNG draws) into an FNV digest. Any reordering of
// event execution or message delivery changes the digest.
type shardModel struct {
	sh      *Shards
	domains []*shardModelDomain
}

type shardModelDomain struct {
	m    *shardModel
	id   DomainID
	eng  *Engine
	rng  *RNG
	hash uint64
	left int
}

const testLookahead = 5 * Microsecond

func newShardModel(nShards, nDomains int, seed uint64, msgsPerDomain int) *shardModel {
	sh := NewShards(nShards, testLookahead)
	m := &shardModel{sh: sh}
	for i := 0; i < nDomains; i++ {
		id, eng := sh.AddDomainAt(fmt.Sprintf("dom%d", i), i%nShards)
		d := &shardModelDomain{
			m:    m,
			id:   id,
			eng:  eng,
			rng:  NewRNG(seed ^ uint64(i)*0x9e3779b97f4a7c15),
			hash: 14695981039346656037,
			left: msgsPerDomain,
		}
		m.domains = append(m.domains, d)
		// Local warm-up churn so domains also have intra-domain event traffic
		// interleaved with arrivals.
		stagger := Duration(d.rng.Intn(int(testLookahead)))
		eng.Schedule(stagger, d.tick)
	}
	return m
}

func (d *shardModelDomain) fold(v uint64) {
	d.hash = (d.hash ^ v) * 1099511628211
}

func (d *shardModelDomain) tick() {
	d.fold(uint64(d.eng.Now()))
	if d.left == 0 {
		return
	}
	d.left--
	// Some local events at odd offsets, then a cross-domain message.
	d.eng.Schedule(Duration(d.rng.Intn(3000)), func() { d.fold(uint64(d.eng.Now()) * 3) })
	dst := d.m.domains[d.rng.Intn(len(d.m.domains))]
	if dst == d {
		// Self-traffic stays local.
		d.eng.Schedule(testLookahead, d.tick)
		return
	}
	delay := testLookahead + Duration(d.rng.Intn(int(2*testLookahead)))
	src := d.id
	d.m.sh.PostAt(src, dst.id, d.eng.Now().Add(delay), func() {
		dst.fold(uint64(dst.eng.Now())<<8 ^ uint64(src))
		dst.tick()
	})
}

func (m *shardModel) digest() uint64 {
	// Fold per-domain observations plus the group clock. A shard engine's own
	// final clock rests on that shard's last event and legitimately varies
	// with placement; the observable clock is the group-level one.
	h := fnv.New64a()
	for _, d := range m.domains {
		fmt.Fprintf(h, "%d|%016x|%d\n", d.id, d.hash, d.left)
	}
	return h.Sum64()
}

// TestShardDeterminismAcrossShardCounts is the core conservative-lookahead
// property: the same (seed, topology) replays bit-identically at 1, 2, 3 and
// 8 shards.
func TestShardDeterminismAcrossShardCounts(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		var want uint64
		var wantEnd Time
		for i, n := range []int{1, 2, 3, 8} {
			m := newShardModel(n, 12, seed, 40)
			end := m.sh.Run()
			got := m.digest()
			if i == 0 {
				want, wantEnd = got, end
				continue
			}
			if got != want {
				t.Fatalf("seed %d: digest %016x at %d shards != %016x at 1 shard", seed, got, n, want)
			}
			if end != wantEnd {
				t.Fatalf("seed %d: group clock %v at %d shards != %v at 1 shard", seed, end, n, wantEnd)
			}
		}
	}
}

// TestShardRunRepeatable: two identical sharded runs digest identically
// (no host state, such as map order or wall time, leaks into results).
func TestShardRunRepeatable(t *testing.T) {
	a := newShardModel(4, 9, 7, 60)
	a.sh.Run()
	b := newShardModel(4, 9, 7, 60)
	b.sh.Run()
	if a.digest() != b.digest() {
		t.Fatalf("same seed, same shards: %016x != %016x", a.digest(), b.digest())
	}
	if a.sh.Windows() == 0 || a.sh.Posted() == 0 {
		t.Fatalf("model exercised no windows/messages (windows=%d posted=%d)", a.sh.Windows(), a.sh.Posted())
	}
}

// TestShardSoloMatchesPlainEngine: a single-domain group runs the exact same
// event sequence as a plain engine: its windows only split the run, they
// never reorder it.
func TestShardSoloMatchesPlainEngine(t *testing.T) {
	run := func(eng *Engine) (uint64, Time) {
		rng := NewRNG(42)
		h := uint64(14695981039346656037)
		n := 200
		var tick func()
		tick = func() {
			h = (h ^ uint64(eng.Now())) * 1099511628211
			if n--; n > 0 {
				eng.Schedule(Duration(rng.Intn(5000)), tick)
			}
		}
		eng.Schedule(0, tick)
		return h, eng.Run()
	}
	plainEng := NewEngine()
	hPlain, tPlain := run(plainEng)

	sh := NewShards(4, testLookahead)
	_, homeEng := sh.AddDomainAt("home", 0)
	hShard, tShard := run(homeEng)

	if hPlain != hShard || tPlain != tShard {
		t.Fatalf("solo group diverged: plain (%016x,%v) vs sharded (%016x,%v)", hPlain, tPlain, hShard, tShard)
	}
}

// TestShardRunGoroutineFree: a sharded run is a serial partition. At
// GOMAXPROCS 2 a multi-shard, multi-domain model sees no goroutine beyond
// those that existed before Run, and an idle Run allocates nothing.
// ReadMemStats counts the allocations, because AllocsPerRun would pin
// GOMAXPROCS to 1.
func TestShardRunGoroutineFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := newShardModel(4, 9, 5, 20)
	before := runtime.NumGoroutine()
	during := -1
	d := m.domains[len(m.domains)-1]
	d.eng.Schedule(3*testLookahead, func() { during = runtime.NumGoroutine() })
	m.sh.Run()
	if m.sh.Windows() < 2 || m.sh.Posted() == 0 {
		t.Fatalf("model exercised no windows/messages (windows=%d posted=%d)", m.sh.Windows(), m.sh.Posted())
	}
	if during != before {
		t.Fatalf("%d goroutines inside a shard window, %d before Run", during, before)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 100; i++ {
		m.sh.Run()
	}
	runtime.ReadMemStats(&ms1)
	if n := ms1.Mallocs - ms0.Mallocs; n != 0 {
		t.Fatalf("100 idle runs allocated %d objects, want 0", n)
	}
}

// TestShardStaleEventIDCancel: an EventID that crosses a shard boundary and
// comes back after its event fired (and the struct was recycled) must cancel
// nothing — the generation check holds across shards. A cancel message that
// arrives in time must win.
func TestShardStaleEventIDCancel(t *testing.T) {
	sh := NewShards(2, testLookahead)
	a, engA := sh.AddDomainAt("a", 0)
	b, engB := sh.AddDomainAt("b", 1)

	fired := 0
	// Case 1 (stale): the timer fires at 2µs, long before the cancel bounces
	// back from domain b (≥ 2 lookaheads). Churn recycles the struct.
	var staleID EventID
	staleCancelled := true
	engA.Schedule(0, func() {
		staleID = engA.Schedule(2*Microsecond, func() { fired++ })
		sh.PostAt(a, b, engA.Now().Add(testLookahead), func() {
			sh.PostAt(b, a, engB.Now().Add(testLookahead), func() {
				staleCancelled = engA.Cancel(staleID)
			})
		})
		// Churn: recycle pressure so the fired event's struct is reused
		// before the cancel arrives.
		for i := 0; i < 32; i++ {
			engA.Schedule(3*Microsecond, func() {})
		}
	})

	// Case 2 (in time): the timer sits at 10 lookaheads; the round-trip
	// cancel arrives first and must remove it.
	liveCancelled := false
	engA.Schedule(0, func() {
		liveID := engA.Schedule(10*testLookahead, func() { fired += 100 })
		sh.PostAt(a, b, engA.Now().Add(testLookahead), func() {
			sh.PostAt(b, a, engB.Now().Add(testLookahead), func() {
				liveCancelled = engA.Cancel(liveID)
			})
		})
	})

	sh.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stale timer fires once, live timer cancelled)", fired)
	}
	if staleCancelled {
		t.Fatal("stale EventID cancelled a recycled event across the shard boundary")
	}
	if !liveCancelled {
		t.Fatal("in-time cross-shard cancel failed")
	}
}

// TestShardPostLookaheadPanics: a delivery inside the lookahead horizon is a
// protocol violation and must panic loudly.
func TestShardPostLookaheadPanics(t *testing.T) {
	sh := NewShards(2, testLookahead)
	a, eng := sh.AddDomainAt("a", 0)
	b, _ := sh.AddDomainAt("b", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("PostAt below the lookahead bound did not panic")
		}
	}()
	eng.Schedule(0, func() { sh.PostAt(a, b, eng.Now().Add(testLookahead-1), func() {}) })
	sh.Run()
}

// TestShardPanicCarriesContext: a panic inside a shard's window is re-raised
// naming the shard, its domains and the virtual time, at any GOMAXPROCS.
func TestShardPanicCarriesContext(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			sh := NewShards(2, testLookahead)
			_, eng := sh.AddDomainAt("a", 0)
			_, other := sh.AddDomainAt("b", 1)
			other.Schedule(Microsecond, func() {})
			eng.Schedule(3*Microsecond, func() { panic("model fault") })
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				sh.Run()
				return ""
			}()
			for _, want := range []string{"shard 0", "domains a", "at 3.000µs", "model fault"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %q does not mention %q", msg, want)
				}
			}
		})
	}
}

// TestEngineReserve: a reserved engine schedules without growing, and the
// hint raises the freelist retention cap.
func TestEngineReserve(t *testing.T) {
	eng := NewEngine()
	eng.Reserve(1 << 15)
	if cap(eng.pq) < 1<<15 {
		t.Fatalf("pq cap %d after Reserve(32768)", cap(eng.pq))
	}
	if len(eng.free) != 1<<15 {
		t.Fatalf("freelist %d after Reserve, want 32768", len(eng.free))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			eng.Schedule(Duration(i), func() {})
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("reserved engine allocated %.1f/run, want 0", allocs)
	}
}

// TestFreelistCapBoundsRetention: after a burst far above the cap, the
// freelist retains at most the cap, so the burst's memory is reclaimable.
func TestFreelistCapBoundsRetention(t *testing.T) {
	eng := NewEngine()
	burst := defaultFreeCap * 4
	for i := 0; i < burst; i++ {
		eng.Schedule(Duration(i%97), func() {})
	}
	eng.Run()
	if len(eng.free) > defaultFreeCap {
		t.Fatalf("freelist retained %d events, cap %d", len(eng.free), defaultFreeCap)
	}
	// Reserve raises the cap.
	eng2 := NewEngine()
	eng2.Reserve(defaultFreeCap * 2)
	for i := 0; i < defaultFreeCap*3; i++ {
		eng2.Schedule(Duration(i%97), func() {})
	}
	eng2.Run()
	if len(eng2.free) > defaultFreeCap*2 {
		t.Fatalf("freelist retained %d events, raised cap %d", len(eng2.free), defaultFreeCap*2)
	}
	if len(eng2.free) <= defaultFreeCap {
		t.Fatalf("raised cap not honoured: retained %d, want > %d", len(eng2.free), defaultFreeCap)
	}
}

// TestHeapRandomOrder drives the 4-ary heap through a randomized
// schedule/cancel mix and checks events fire in strict (time, seq) order.
func TestHeapRandomOrder(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(99)
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	var ids []EventID
	n := 0
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(1000))
		seq := n
		n++
		id := eng.At(at, func() { fired = append(fired, stamp{eng.Now(), seq}) })
		ids = append(ids, id)
		if rng.Intn(4) == 0 && len(ids) > 1 {
			eng.Cancel(ids[rng.Intn(len(ids))])
		}
	}
	eng.Run()
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("out of order at %d: (%v,%d) before (%v,%d)", i, a.at, a.seq, b.at, b.seq)
		}
	}
	if len(fired) == 0 || len(fired) == 5000 {
		t.Fatalf("fired %d of 5000 — cancel mix did not exercise both paths", len(fired))
	}
}
