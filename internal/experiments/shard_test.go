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

// TestScaleSweepSmoke runs the quick scale sweep and checks the city-scale
// family is shard-invariant and produces sane results.
func TestScaleSweepSmoke(t *testing.T) {
	cfg := Quick()
	var ref *ScaleSweepResult
	for _, n := range []int{1, 2, 8} {
		var res *ScaleSweepResult
		var err error
		withShards(t, n, func() {
			res, err = ScaleSweep(cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			for _, c := range res.Cells {
				if c.KIOPS <= 0 || c.TotalOps == 0 {
					t.Fatalf("degenerate healthy cell: %+v", c)
				}
				if c.DegradedPGs == 0 || c.RecoveredPGs != c.DegradedPGs {
					t.Fatalf("recovery incomplete at %d OSDs: %d/%d PGs",
						c.OSDs, c.RecoveredPGs, c.DegradedPGs)
				}
			}
			if res.Cells[0].OSDs >= res.Cells[len(res.Cells)-1].OSDs {
				t.Fatal("size axis not increasing")
			}
			continue
		}
		if got, want := res.Digest(), ref.Digest(); got != want {
			t.Fatalf("scale sweep digest %016x at %d shards != %016x at 1", got, n, want)
		}
	}
}
