package rados

import (
	"slices"
	"testing"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// freshSelect recomputes a PG's placement without the cache, exactly as the
// ActingSet miss path does.
func freshSelect(t *testing.T, c *Cluster, pool *Pool, pg uint32) []int {
	t.Helper()
	var rw []uint32
	if m := c.Monitor(); m != nil {
		rw = m.Reweights()
	}
	act, err := c.Map.Select(poolRule(pool), crush.Hash2(pg, uint32(pool.ID)), pool.Width(), rw)
	if err != nil {
		t.Fatal(err)
	}
	return act
}

func poolRule(p *Pool) *crush.Rule { return p.rule }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlacementCacheMatchesSelect(t *testing.T) {
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, sim.Microsecond)
	c, err := NewCluster(eng, fabric, DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreateReplicatedPool("rbd", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := c.CreateECPool("ec", 4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pool{pool, ec} {
		for pg := uint32(0); pg < p.PGs; pg++ {
			got, err := c.ActingSet(p, pg)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshSelect(t, c, p, pg); !equalInts(got, want) {
				t.Fatalf("pool %s pg %d: cached %v, fresh %v", p.Name, pg, got, want)
			}
			// Second call must be a hit returning the identical slice.
			again, err := c.ActingSet(p, pg)
			if err != nil {
				t.Fatal(err)
			}
			if &again[0] != &got[0] {
				t.Fatalf("pool %s pg %d: hit did not return the cached slice", p.Name, pg)
			}
		}
	}
	if c.place.Misses != uint64(pool.PGs+ec.PGs) {
		t.Fatalf("misses = %d, want %d", c.place.Misses, pool.PGs+ec.PGs)
	}
	if c.place.Hits != uint64(pool.PGs+ec.PGs) {
		t.Fatalf("hits = %d, want %d", c.place.Hits, pool.PGs+ec.PGs)
	}
}

func TestPlacementCacheInvalidatedByMonitor(t *testing.T) {
	eng, c, m := newMonCluster(t)
	pool, err := c.CreateReplicatedPool("rbd", 3, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache and find a PG that places on osd.0.
	victim := uint32(0)
	found := false
	for pg := uint32(0); pg < pool.PGs; pg++ {
		act, err := c.ActingSet(pool, pg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range act {
			if o == 0 {
				victim, found = pg, true
			}
		}
	}
	if !found {
		t.Fatal("no PG maps to osd.0")
	}
	e0 := c.MapEpoch()

	// MarkOut must flush: the victim PG's placement no longer contains osd.0,
	// and every post-flush answer matches a fresh Select.
	if err := m.MarkOut(0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if c.MapEpoch() == e0 {
		t.Fatal("MarkOut did not advance the map epoch")
	}
	act, err := c.ActingSet(pool, victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range act {
		if o == 0 {
			t.Fatalf("pg %d still places on out-weighted osd.0: %v", victim, act)
		}
	}
	if want := freshSelect(t, c, pool, victim); !equalInts(act, want) {
		t.Fatalf("post-invalidation mismatch: %v vs %v", act, want)
	}

	// MarkIn must flush too: osd.0 comes back, and the victim PG with it.
	e1 := c.MapEpoch()
	if err := m.MarkIn(0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if c.MapEpoch() == e1 {
		t.Fatal("MarkIn did not advance the map epoch")
	}
	for pg := uint32(0); pg < pool.PGs; pg++ {
		got, err := c.ActingSet(pool, pg)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshSelect(t, c, pool, pg); !equalInts(got, want) {
			t.Fatalf("pg %d after mark-in: cached %v, fresh %v", pg, got, want)
		}
	}
	if act, _ := c.ActingSet(pool, victim); !slices.Contains(act, 0) {
		t.Fatalf("pg %d does not return to osd.0 after mark-in: %v", victim, act)
	}
}

// TestPlacementCacheReselectsAfterMarkOutAndIn: marking an OSD out only
// lowers a weight, so the cache re-selects just the PGs that held it;
// marking it back in raises one, so every PG is selected afresh.
func TestPlacementCacheReselectsAfterMarkOutAndIn(t *testing.T) {
	eng, c, m := newMonCluster(t)
	pool, err := c.CreateReplicatedPool("rbd", 3, 128)
	if err != nil {
		t.Fatal(err)
	}
	holding := uint64(0)
	for pg := uint32(0); pg < pool.PGs; pg++ {
		act, err := c.ActingSet(pool, pg)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(act, 0) {
			holding++
		}
	}
	if holding == 0 {
		t.Fatal("no PG maps to osd.0")
	}
	selectAll := func(step string) (misses uint64) {
		t.Helper()
		before := c.place.Misses
		for pg := uint32(0); pg < pool.PGs; pg++ {
			got, err := c.ActingSet(pool, pg)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshSelect(t, c, pool, pg); !equalInts(got, want) {
				t.Fatalf("pg %d after %s: cached %v, fresh %v", pg, step, got, want)
			}
		}
		return c.place.Misses - before
	}
	if err := m.MarkOut(0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := selectAll("mark-out"); got != holding {
		t.Fatalf("mark-out re-selected %d PGs, want the %d that held osd.0", got, holding)
	}
	if err := m.MarkIn(0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := selectAll("mark-in"); got != uint64(pool.PGs) {
		t.Fatalf("mark-in re-selected %d PGs, want all %d", got, pool.PGs)
	}
}

func TestActingSetCacheHitAllocs(t *testing.T) {
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, sim.Microsecond)
	c, err := NewCluster(eng, fabric, DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreateReplicatedPool("rbd", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint32(0); pg < pool.PGs; pg++ {
		if _, err := c.ActingSet(pool, pg); err != nil {
			t.Fatal(err)
		}
	}
	pg := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.ActingSet(pool, pg); err != nil {
			t.Fatal(err)
		}
		pg = (pg + 1) % pool.PGs
	})
	if allocs != 0 {
		t.Fatalf("ActingSet hit path allocated %.1f/op, want 0", allocs)
	}
}

func newBenchCluster(b *testing.B) (*Cluster, *Pool) {
	b.Helper()
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, sim.Microsecond)
	c, err := NewCluster(eng, fabric, DefaultClusterConfig())
	if err != nil {
		b.Fatal(err)
	}
	pool, err := c.CreateReplicatedPool("rbd", 3, 256)
	if err != nil {
		b.Fatal(err)
	}
	return c, pool
}

// BenchmarkActingSetCached measures the memoized hit path; compare against
// BenchmarkSelectUncached for the full-CRUSH-descent cost it replaces.
func BenchmarkActingSetCached(b *testing.B) {
	c, pool := newBenchCluster(b)
	for pg := uint32(0); pg < pool.PGs; pg++ {
		if _, err := c.ActingSet(pool, pg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ActingSet(pool, uint32(i)%pool.PGs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectUncached is the pre-cache cost: a straw2 CRUSH descent per
// lookup, allocating the result slice.
func BenchmarkSelectUncached(b *testing.B) {
	c, pool := newBenchCluster(b)
	rule := poolRule(pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := uint32(i) % pool.PGs
		if _, err := c.Map.Select(rule, crush.Hash2(pg, uint32(pool.ID)), pool.Width(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
