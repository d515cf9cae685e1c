package experiments

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// withParallelism runs fn with the runner pinned to n workers.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

func TestRunCellsAssemblyOrder(t *testing.T) {
	withParallelism(t, 4, func() {
		const n = 37
		out, err := RunCells(n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("len = %d, want %d", len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("out[%d] = %d, want %d (completion order leaked into assembly)", i, v, i*i)
			}
		}
	})
}

func TestRunCellsZeroCells(t *testing.T) {
	out, err := RunCells(0, func(i int) (int, error) { return 0, errors.New("must not run") })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestRunCellsFirstErrorInCellOrder(t *testing.T) {
	// Every odd cell fails; parallel dispatch may complete them in any
	// order, but the reported error must be the one a serial sweep would
	// have hit first.
	withParallelism(t, 4, func() {
		_, err := RunCells(9, func(i int) (int, error) {
			if i%2 == 1 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 1 failed" {
			t.Fatalf("err = %v, want cell 1's error", err)
		}
	})
}

func TestRunCellsSerialStopsAtFirstError(t *testing.T) {
	withParallelism(t, 1, func() {
		var calls atomic.Int32
		_, err := RunCells(10, func(i int) (int, error) {
			calls.Add(1)
			if i == 2 {
				return 0, errors.New("boom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("error swallowed")
		}
		if calls.Load() != 3 {
			t.Fatalf("serial path ran %d cells after the failure, want stop at 3", calls.Load())
		}
	})
}

// determinismConfig is a reduced grid: digest equality does not depend on
// scale, so the property tests keep the per-cell runs small.
func determinismConfig(seed uint64) Config {
	cfg := Quick()
	cfg.Ops = 60
	cfg.LatOps = 24
	cfg.Seed = seed
	return cfg
}

// softwareBaselineSerialRef is the pre-runner implementation of
// SoftwareBaseline: the literal nested loops the package used before the
// fan-out conversion. It is the third leg of the determinism property —
// proving the conversion itself, not just worker-count invariance.
func softwareBaselineSerialRef(cfg Config, ec bool) (*SWBaselineResult, error) {
	res := &SWBaselineResult{EC: ec}
	for _, kind := range []core.StackKind{core.StackD2SW, core.StackDKSW} {
		for _, wl := range StdWorkloads {
			for _, bs := range swBaselineBlockSizes {
				lp, err := runLatency(cfg, kind, ec, wl, bs)
				if err != nil {
					return nil, err
				}
				tp, err := runPoint(cfg, kind, ec, wl, bs, cfg.QueueDepth, cfg.Ops)
				if err != nil {
					return nil, err
				}
				res.Latency = append(res.Latency, lp)
				res.Rate = append(res.Rate, tp)
			}
		}
	}
	return res, nil
}

func TestSoftwareBaselineDigestInvariantAcrossParallelism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := determinismConfig(seed)
		ref, err := softwareBaselineSerialRef(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Digest()
		for _, workers := range []int{1, 4} {
			withParallelism(t, workers, func() {
				got, err := SoftwareBaseline(cfg, false)
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

func TestHWSweepDigestInvariantAcrossParallelism(t *testing.T) {
	cfg := determinismConfig(3)
	var d1, d4 uint64
	withParallelism(t, 1, func() {
		res, err := HWSweep(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		d1 = res.Digest()
	})
	withParallelism(t, 4, func() {
		res, err := HWSweep(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		d4 = res.Digest()
	})
	if d1 != d4 {
		t.Fatalf("EC sweep digests diverge: 1 worker %#x, 4 workers %#x", d1, d4)
	}
}

func TestSmallFamiliesDigestInvariantAcrossParallelism(t *testing.T) {
	cfg := determinismConfig(5)
	measure := func() (d []uint64) {
		for _, name := range []string{"buckets", "recovery", "realworld"} {
			fam, err := LookupFamily(name)
			if err != nil {
				t.Fatal(err)
			}
			out, err := fam.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d = append(d, out.Digest)
		}
		// One ablation, not the registry's whole grid, keeps the test small.
		abl, err := runAblations(cfg, ablationSpecs[:1])
		if err != nil {
			t.Fatal(err)
		}
		return append(d, AblationsDigest(abl))
	}
	var serial, fanned []uint64
	withParallelism(t, 1, func() { serial = measure() })
	withParallelism(t, 4, func() { fanned = measure() })
	if !slices.Equal(serial, fanned) {
		t.Fatalf("digests (buckets, recovery, realworld, ablation) diverge between 1 and 4 workers:\nserial: %x\nfanned: %x", serial, fanned)
	}
}
