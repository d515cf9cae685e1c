package experiments

import (
	"testing"
)

// withShards runs fn with the runner's shard count pinned, restoring the
// previous setting afterwards.
func withShards(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetShards(n)
	defer SetShards(prev)
	fn()
}

// TestFamiliesShardInvariant is the tentpole acceptance property on the real
// experiment families: fig3 and the fault sweep digest identically with a
// plain engine (serial reference) and with sharded testbeds at 1, 2 and 8
// shards, across seeds. Classic testbeds are a single topology domain, so
// the solo fast path must reproduce the plain engine's event order exactly.
func TestFamiliesShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed family sweep")
	}
	for _, name := range []string{"fig3", "faults"} {
		fam, err := LookupFamily(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 2, 3} {
				cfg := Quick()
				cfg.Seed = seed
				// Serial reference: plain engines, no group at all.
				ref, err := fam.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{1, 2, 8} {
					var got Outcome
					withShards(t, n, func() {
						got, err = fam.Run(cfg)
					})
					if err != nil {
						t.Fatal(err)
					}
					if got.Digest != ref.Digest {
						t.Fatalf("seed %d: %s digest %016x at %d shards != serial reference %016x",
							seed, name, got.Digest, n, ref.Digest)
					}
				}
			}
		})
	}
}

// TestScaleSweepSmoke runs the quick scale sweep serially and on three
// workers: the digests must be equal, and every cell sane. Its healthy
// run completes ops without failing one; its failure run fails none
// either, and backfills every PG the mark-out moved. runFleet itself
// rejects a run that leaves an event pending once the monitor stops.
func TestScaleSweepSmoke(t *testing.T) {
	cfg := Quick()
	var serial, par *ScaleSweepResult
	var err error
	withParallelism(t, 1, func() { serial, err = ScaleSweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	withParallelism(t, 3, func() { par, err = ScaleSweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range serial.Cells {
		if c.KIOPS <= 0 || c.TotalOps == 0 {
			t.Fatalf("degenerate healthy cell: %+v", c)
		}
		if c.Failed != 0 || c.FailFailed != 0 {
			t.Fatalf("%d OSDs: %d healthy and %d failure-run ops failed", c.OSDs, c.Failed, c.FailFailed)
		}
		if c.MovedPGs == 0 || c.BackfilledPGs != c.MovedPGs {
			t.Fatalf("recovery incomplete at %d OSDs: %d/%d PGs",
				c.OSDs, c.BackfilledPGs, c.MovedPGs)
		}
	}
	if serial.Cells[0].OSDs >= serial.Cells[len(serial.Cells)-1].OSDs {
		t.Fatal("size axis not increasing")
	}
	if got, want := par.Digest(), serial.Digest(); got != want {
		t.Fatalf("scale sweep digest %016x on 3 workers != %016x serial", got, want)
	}
}
