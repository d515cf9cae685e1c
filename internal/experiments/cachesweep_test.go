package experiments

import "testing"

// TestCacheSweepQuick runs the full family at quick scale and checks the
// family's acceptance bar (Check: the 90%-hot workload gains ≥10× p50 over
// the direct path and no crash loses an acknowledged write) plus the shape
// behind it: hits dominate misses once warm, cache-none cells report no
// cache activity, and every crash-recovery scenario replays.
func TestCacheSweepQuick(t *testing.T) {
	res, err := CacheSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cacheWorkloads)*len(cacheSizesMB) {
		t.Fatalf("sweep has %d cells", len(res.Points))
	}
	if err := res.Check(false); err != nil {
		t.Error(err)
	}
	if sp := res.HitSpeedup("rand-write"); sp < 3 {
		t.Errorf("rand-write p50 speedup %.1fx, want >= 3x (log append vs cluster round trip)", sp)
	}

	for _, p := range res.Points {
		if p.CacheMB == 0 {
			if p.Hits != 0 || p.Misses != 0 || p.Flushes != 0 {
				t.Errorf("cache-none cell %s reports cache activity: %+v", p.Workload, p)
			}
			continue
		}
		if p.Workload == "rand-write" {
			if p.Flushes == 0 {
				t.Errorf("%s/%dMB: background flusher never drained a segment", p.Workload, p.CacheMB)
			}
			continue
		}
		if p.Hits == 0 {
			t.Errorf("%s/%dMB: no cache hits", p.Workload, p.CacheMB)
		}
	}

	// The hot-set and sequential streams should be strongly cacheable even
	// at quick scale; Zipf is skewed but long-tailed, so only a floor.
	for wl, floor := range map[string]float64{"hot90-read": 0.6, "seq-read": 0.8, "zipf-read": 0.2} {
		p, ok := res.point(wl, 256)
		if !ok {
			t.Fatalf("cell %s/256 missing", wl)
		}
		if p.HitRatio < floor {
			t.Errorf("%s hit ratio %.2f below floor %.2f", wl, p.HitRatio, floor)
		}
	}

	if len(res.Recovery) < 3 {
		t.Fatalf("only %d crash-recovery seeds, want >= 3", len(res.Recovery))
	}
	for _, rec := range res.Recovery {
		if rec.Recoveries != 1 {
			t.Errorf("seed %d: %d recoveries, want 1", rec.Seed, rec.Recoveries)
		}
		if rec.Replays == 0 {
			t.Errorf("seed %d: crash caught no in-flight ops (scenario too late?)", rec.Seed)
		}
		if rec.RecoveryTime <= 0 {
			t.Errorf("seed %d: recovery time %v", rec.Seed, rec.RecoveryTime)
		}
	}

	if len(res.Admission) != 2 {
		t.Fatalf("admission head-to-head has %d cells, want 2", len(res.Admission))
	}
	always, gated := res.Admission[0], res.Admission[1]
	if always.Admit || !gated.Admit {
		t.Fatalf("admission cells out of order: %+v / %+v", always, gated)
	}
	if gated.Bypassed == 0 {
		t.Error("reuse gate never bypassed a first-touch miss")
	}
	if always.Bypassed != 0 || always.Reuses != 0 {
		t.Errorf("fill-always cell reports admission counters: %+v", always)
	}
	if gated.Evictions >= always.Evictions {
		t.Errorf("reuse gate did not cut evictions: %d gated vs %d always",
			gated.Evictions, always.Evictions)
	}
	if gated.HitRatio < always.HitRatio {
		t.Errorf("reuse gate lowered hit ratio: %.3f gated vs %.3f always",
			gated.HitRatio, always.HitRatio)
	}

	if res.Table() == nil || res.AdmissionTable() == nil || res.RecoveryTable() == nil {
		t.Error("tables did not render")
	}
}

// TestCacheSweepDigestInvariantAcrossParallelism pins bit-identical
// replay: the same config yields the same digest serial and fanned out.
func TestCacheSweepDigestInvariantAcrossParallelism(t *testing.T) {
	cfg := determinismConfig(9)
	var d1, d4 uint64
	withParallelism(t, 1, func() {
		res, err := CacheSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d1 = res.Digest()
	})
	withParallelism(t, 4, func() {
		res, err := CacheSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d4 = res.Digest()
	})
	if d1 != d4 {
		t.Fatalf("cache sweep digests diverge: 1 worker %#x, 4 workers %#x", d1, d4)
	}
}
