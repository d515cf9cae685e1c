package experiments

import (
	"testing"
)

// faultSweepSerialRef is the literal nested loop FaultSweep replaces — the
// serial leg of the determinism property.
func faultSweepSerialRef(cfg Config) (*FaultSweepResult, error) {
	res := &FaultSweepResult{}
	for _, stack := range faultSweepStacks {
		for _, plan := range faultPlans {
			cell, err := runFaultCell(cfg, stack, plan)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// TestFaultSweepDigestInvariantAcrossParallelism proves a fault sweep is
// bit-identical run serially, with 1 worker, and with 4 workers, for three
// seeds — injected faults and retry jitter included.
func TestFaultSweepDigestInvariantAcrossParallelism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := determinismConfig(seed)
		ref, err := faultSweepSerialRef(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Digest()
		for _, workers := range []int{1, 4} {
			withParallelism(t, workers, func() {
				got, err := FaultSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.Digest(); d != want {
					t.Errorf("seed %d, %d workers: digest %#x != serial reference %#x",
						seed, workers, d, want)
				}
			})
		}
	}
}

// TestFaultSweepReproduciblePerSeed pins per-seed stability (same seed, same
// digest) and seed sensitivity (different seeds diverge).
func TestFaultSweepReproduciblePerSeed(t *testing.T) {
	cfg := determinismConfig(9)
	a, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed diverged: %#x vs %#x", a.Digest(), b.Digest())
	}
	cfg2 := determinismConfig(10)
	c, err := FaultSweep(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest() == a.Digest() {
		t.Error("seeds 9 and 10 produced identical digests — seed not feeding the sweep")
	}
}

// TestFaultSweepCrashCompletesAllIO is the fault layer's acceptance bar: at
// seed 1, a mid-run OSD crash (replicated and EC cells, both stacks) must
// not cost a single I/O — the resilience layer routes around it.
func TestFaultSweepCrashCompletesAllIO(t *testing.T) {
	res, err := FaultSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	crashCells := 0
	for _, c := range res.Cells {
		switch c.Scenario {
		case "osd-crash", "osd-crash-ec":
			crashCells++
			if c.Errors != 0 || c.Availability != 1.0 {
				t.Errorf("%v/%s: errors=%d availability=%.4f, want 0 errors / 100%%",
					c.Stack, c.Scenario, c.Errors, c.Availability)
			}
			if c.Faults.Crashes != 1 || c.Faults.Restarts != 1 {
				t.Errorf("%v/%s: injector fired %d crashes / %d restarts, want 1/1",
					c.Stack, c.Scenario, c.Faults.Crashes, c.Faults.Restarts)
			}
			if c.Scenario == "osd-crash-ec" && c.Res.DegradedReads == 0 {
				t.Errorf("%v/%s: no degraded reads counted with a shard OSD down", c.Stack, c.Scenario)
			}
		}
	}
	if want := 2 * len(faultSweepStacks); crashCells != want {
		t.Fatalf("found %d crash cells, want %d", crashCells, want)
	}
	// The sweep's whole point: faults armed, nothing lost.
	for _, c := range res.Cells {
		if c.Availability != 1.0 {
			t.Logf("note: %v/%s availability %.4f (tail-latency cost only scenarios may dip)",
				c.Stack, c.Scenario, c.Availability)
		}
	}
}

// TestFaultSweepHealthyMatchesBaselineShape sanity-checks the healthy cells:
// no resilience activity at all (zero counters) and both stacks present.
func TestFaultSweepHealthyMatchesBaselineShape(t *testing.T) {
	res, err := FaultSweep(determinismConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range res.Cells {
		if c.Scenario != "healthy" {
			continue
		}
		seen[c.Stack] = true
		if c.Res.Any() || c.Faults.HookDrops != 0 || c.Errors != 0 {
			t.Errorf("%v/healthy: resilience activity on a fault-free run: %+v drops=%d errs=%d",
				c.Stack, c.Res, c.Faults.HookDrops, c.Errors)
		}
	}
	for _, stack := range faultSweepStacks {
		if !seen[stack] {
			t.Errorf("no healthy cell for %s", stack)
		}
	}
}
