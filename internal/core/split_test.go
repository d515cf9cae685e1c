package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/sim"
)

func splitConfig() TestbedConfig {
	cfg := DefaultTestbedConfig()
	cfg.Shards = 2
	cfg.SplitDomains = true
	return cfg
}

// splitOps runs 200 seeded 4 KiB ops, half reads, one after another as an
// event chain (a sharded engine cannot stop mid-window for Wait), hands
// each op's latency to lat, and drains the engine.
func splitOps(t *testing.T, tb *Testbed, stack Stack, seed uint64, lat func(i int, d sim.Duration)) {
	rng := sim.NewRNG(seed)
	var issue func(i int)
	issue = func(i int) {
		if i == 200 {
			return
		}
		op := Write
		if rng.Intn(100) < 50 {
			op = Read
		}
		off := int64(rng.Intn(256)) * 4096
		start := tb.Eng.Now()
		stack.Submit(op, Rand, off, 4096, 0, func(err error) {
			if err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
			if lat != nil {
				lat(i, tb.Eng.Now().Sub(start))
			}
			issue(i + 1)
		})
	}
	tb.Eng.Schedule(0, func() { issue(0) })
	tb.Eng.Run()
}

// splitRunDigest runs a mixed read/write stream on the split-domain
// testbed over deliba-k-sw+cache-lsvd and returns an FNV digest of every
// op's completion latency plus the group's cross-shard message count.
func splitRunDigest(t *testing.T, seed uint64) (uint64, uint64) {
	return splitRunDigestCfg(t, splitConfig(), seed)
}

func splitRunDigestCfg(t *testing.T, cfg TestbedConfig, seed uint64) (uint64, uint64) {
	t.Helper()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ParseStackSpec("deliba-k-sw+cache-lsvd")
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	splitOps(t, tb, stack, seed, func(i int, lat sim.Duration) {
		fmt.Fprintf(h, "%d|%d\n", i, int64(lat))
	})
	if tb.Shards == nil {
		t.Fatal("split testbed built no shard group")
	}
	cache := CacheOf(stack)
	if cache == nil {
		t.Fatal("cache-lsvd stack exposes no cache")
	}
	if st := cache.Stats(); st.Appends == 0 {
		t.Error("cache log never appended: writes bypassed the cache tier")
	}
	posted := tb.Shards.Posted()
	stack.Close()
	tb.Eng.Run() // drain the cache flusher's shutdown
	return h.Sum64(), posted
}

// TestSplitDomainsSmoke drives the host-domain client + LSVD cache against
// OSDs living on a second shard and checks the run actually crossed the
// shard boundary and replays bit-identically.
func TestSplitDomainsSmoke(t *testing.T) {
	d1, posted := splitRunDigest(t, 7)
	d2, _ := splitRunDigest(t, 7)
	if d1 != d2 {
		t.Fatalf("split-domain run not deterministic: %#x vs %#x", d1, d2)
	}
	if posted == 0 {
		t.Fatal("no cross-shard messages: the OSD domain never left the host shard")
	}
	if d3, _ := splitRunDigest(t, 8); d3 == d1 {
		t.Error("digest insensitive to the workload seed")
	}
}

// TestSplitDomainsShardSpread pins the per-node domain layout: with four
// OSD nodes the split testbed builds four node domains round-robin over
// the non-host shards, and because cross-domain delivery order is fixed by
// the canonical (time, domain, sequence) merge — never by shard placement
// — the digest is bit-identical whether those domains share one shard or
// spread over three.
func TestSplitDomainsShardSpread(t *testing.T) {
	base := func(shards int) TestbedConfig {
		cfg := splitConfig()
		cfg.Nodes = 4
		cfg.OSDsPerNode = 8
		cfg.Shards = shards
		return cfg
	}
	for _, seed := range []uint64{7, 11} {
		ref, posted := splitRunDigestCfg(t, base(2), seed)
		if posted == 0 {
			t.Fatal("no cross-shard messages on the 2-shard layout")
		}
		for _, shards := range []int{3, 4} {
			got, _ := splitRunDigestCfg(t, base(shards), seed)
			if got != ref {
				t.Errorf("seed %d: digest %#x on %d shards != %#x on 2 shards — shard placement leaked into event order",
					seed, got, shards, ref)
			}
		}
	}
}

// TestSplitDomainsRejects pins the unsupported combinations: split mode
// needs >= 2 shards, and the card models, erasure coding and the
// resilience layer all drive cluster state from the host domain.
func TestSplitDomainsRejects(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Shards = 2
	if _, err := NewTestbed(cfg); err == nil || !strings.Contains(err.Error(), "needs SplitDomains") {
		t.Errorf("Shards without SplitDomains: %v", err)
	}
	cfg.Shards = 0
	cfg.SplitDomains = true
	if _, err := NewTestbed(cfg); err == nil || !strings.Contains(err.Error(), "Shards >= 2") {
		t.Errorf("SplitDomains without shards: %v", err)
	}
	cfg.Shards = 2
	cfg.Resilience.Enabled = true
	if _, err := NewTestbed(cfg); err == nil || !strings.Contains(err.Error(), "resilience") {
		t.Errorf("SplitDomains with resilience: %v", err)
	}

	tb, err := NewTestbed(splitConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"deliba-k-hw", "deliba-2-hw", "deliba-1-hw"} {
		sp, err := ParseStackSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.BuildStack(sp); err == nil || !strings.Contains(err.Error(), "split-domain") {
			t.Errorf("card stack %s on split testbed: %v", spec, err)
		}
	}
	sp, err := ParseStackSpec("deliba-k-sw")
	if err != nil {
		t.Fatal(err)
	}
	sp.EC = true
	if _, err := tb.BuildStack(sp); err == nil || !strings.Contains(err.Error(), "erasure") {
		t.Errorf("EC stack on split testbed: %v", err)
	}
}

// TestSplitDomainOpAllocs pins the steady state of warm DK-SW ops on the
// split-domain testbed, where each op's request and reply legs cross
// shards as fabric deliveries merged at window barriers: an idle Eng.Run
// allocates nothing, and with the caller's callback bound once, a batch of
// QD1 ops run by one Eng.Run allocates no more than that — no delivery
// record, no barrier sort closure.
func TestSplitDomainOpAllocs(t *testing.T) {
	tb, st := buildSpec(t, splitConfig(), "deliba-k-sw")
	const batch = 100
	var failed error
	i, left := 0, 0
	var issue func()
	done := func(err error) {
		if err != nil {
			failed = err
		}
		if left--; left > 0 {
			issue()
		}
	}
	issue = func() {
		kind := Read
		if i%3 == 0 {
			kind = Write
		}
		off := int64(i%16) * (4 << 20)
		i++
		st.Submit(kind, Rand, off, 4096, 0, done)
	}
	ops := func() {
		left = batch
		issue()
		tb.Eng.Run()
	}
	ops()
	perBatch := testing.AllocsPerRun(20, ops)
	idle := testing.AllocsPerRun(20, func() { tb.Eng.Run() })
	if failed != nil {
		t.Fatal(failed)
	}
	if want := 22 * batch; i != want { // warm-up, AllocsPerRun's own warm-up, 20 runs
		t.Fatalf("ran %d ops, want %d", i, want)
	}
	if idle != 0 {
		t.Errorf("an idle split-domain Eng.Run allocated %.0f, want 0", idle)
	}
	if perBatch > idle {
		t.Errorf("%d warm split-domain deliba-k-sw ops allocated %.0f, an idle run %.0f; want no more",
			batch, perBatch, idle)
	}
}
