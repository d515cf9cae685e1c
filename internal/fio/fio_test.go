package fio

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// newStack builds the named stack on a fresh default testbed.
func newStack(t *testing.T, name string) (*core.Testbed, core.Stack) {
	t.Helper()
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseStackSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tb.BuildStack(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tb, stack
}

func runSpec(t *testing.T, name string, spec JobSpec) *Result {
	t.Helper()
	tb, stack := newStack(t, name)
	res, err := Run(tb.Eng, stack, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasics(t *testing.T) {
	res := runSpec(t, "deliba-k-hw", JobSpec{
		Name: "smoke", ReadPct: 100, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 4, Jobs: 2, Ops: 50, Seed: 1,
	})
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if got := res.Lat.Count(); got != 100 { // 2 jobs x 50 ops
		t.Fatalf("measured ops = %d, want 100", got)
	}
	if res.ReadLat.Count() != 100 || res.WriteLat.Count() != 0 {
		t.Fatal("read/write split wrong for pure-read job")
	}
	if res.IOPS() <= 0 || res.MBps() <= 0 {
		t.Fatal("throughput not measured")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

func TestRampOpsExcluded(t *testing.T) {
	res := runSpec(t, "deliba-k-sw", JobSpec{
		Name: "ramp", ReadPct: 0, Pattern: core.Seq,
		BlockSize: 4096, QueueDepth: 1, Jobs: 1, Ops: 20, RampOps: 10, Seed: 2,
	})
	if res.Lat.Count() != 20 {
		t.Fatalf("measured = %d, want 20 (ramp excluded)", res.Lat.Count())
	}
}

func TestMixedWorkloadSplits(t *testing.T) {
	res := runSpec(t, "deliba-k-sw", JobSpec{
		Name: "mix", ReadPct: 70, Pattern: core.Rand,
		BlockSize: 8192, QueueDepth: 4, Jobs: 1, Ops: 400, Seed: 3,
	})
	r := float64(res.ReadLat.Count())
	w := float64(res.WriteLat.Count())
	if r+w != 400 {
		t.Fatalf("counts r=%v w=%v", r, w)
	}
	share := r / (r + w)
	if share < 0.60 || share > 0.80 {
		t.Fatalf("read share = %.2f, want ~0.70", share)
	}
}

func TestQueueDepthIncreasesThroughput(t *testing.T) {
	base := runSpec(t, "deliba-k-hw", JobSpec{
		Name: "qd1", ReadPct: 0, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 1, Jobs: 1, Ops: 150, Seed: 4,
	})
	deep := runSpec(t, "deliba-k-hw", JobSpec{
		Name: "qd16", ReadPct: 0, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 16, Jobs: 1, Ops: 150, Seed: 4,
	})
	if deep.IOPS() < base.IOPS()*3 {
		t.Fatalf("QD16 (%.0f IOPS) not ≫ QD1 (%.0f IOPS)", deep.IOPS(), base.IOPS())
	}
}

func TestThroughputRatioDKvsD2SmallRandWrite(t *testing.T) {
	// The headline: DeLiBA-K achieves ~3.45x DeLiBA-2 throughput at 4 kB
	// random writes (Fig. 6). Accept 2.5x-5x as shape-preserving.
	spec := JobSpec{
		Name: "tp4k", ReadPct: 0, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 16, Jobs: 3, Ops: 400, RampOps: 40, Seed: 5,
	}
	dk := runSpec(t, "deliba-k-hw", spec)
	d2 := runSpec(t, "deliba-2-hw", spec)
	ratio := dk.MBps() / d2.MBps()
	if ratio < 2.0 || ratio > 6.0 {
		t.Fatalf("DK/D2 4kB rand-write throughput ratio = %.2f (DK=%.1f MB/s, D2=%.1f MB/s), want ~3.45",
			ratio, dk.MBps(), d2.MBps())
	}
}

func TestThroughputRatioLargeSeqWrite(t *testing.T) {
	// Fig. 6: at 128 kB sequential writes DK keeps ~2x over D2 (the RTL
	// vs HLS TCP pipeline gap).
	spec := JobSpec{
		Name: "tp128k", ReadPct: 0, Pattern: core.Seq,
		BlockSize: 131072, QueueDepth: 8, Jobs: 3, Ops: 150, RampOps: 20, Seed: 6,
	}
	dk := runSpec(t, "deliba-k-hw", spec)
	d2 := runSpec(t, "deliba-2-hw", spec)
	ratio := dk.MBps() / d2.MBps()
	if ratio < 1.4 || ratio > 3.5 {
		t.Fatalf("DK/D2 128kB seq-write ratio = %.2f (DK=%.1f, D2=%.1f MB/s), want ~2.0",
			ratio, dk.MBps(), d2.MBps())
	}
}

func TestSpeedupShrinksWithBlockSize(t *testing.T) {
	// The DK advantage is largest at small blocks (per-op overheads) and
	// shrinks toward the wire limit at large blocks.
	ratioAt := func(bs int) float64 {
		spec := JobSpec{
			Name: "sweep", ReadPct: 0, Pattern: core.Rand,
			BlockSize: bs, QueueDepth: 16, Jobs: 3, Ops: 200, RampOps: 20, Seed: 7,
		}
		dk := runSpec(t, "deliba-k-hw", spec)
		d2 := runSpec(t, "deliba-2-hw", spec)
		return dk.MBps() / d2.MBps()
	}
	small := ratioAt(4096)
	large := ratioAt(131072)
	if small <= large {
		t.Fatalf("speedup at 4kB (%.2f) not larger than at 128kB (%.2f)", small, large)
	}
}

func TestValidation(t *testing.T) {
	tb, stack := newStack(t, "deliba-k-sw")
	if _, err := Run(tb.Eng, stack, JobSpec{BlockSize: 0, Ops: 1}); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := Run(tb.Eng, stack, JobSpec{BlockSize: 4096, Ops: 0}); err == nil {
		t.Fatal("zero ops accepted")
	}
	if _, err := Run(tb.Eng, stack, JobSpec{BlockSize: 4096, Ops: 1, ReadPct: 200}); err == nil {
		t.Fatal("bad read pct accepted")
	}
	if _, err := Run(tb.Eng, stack, JobSpec{BlockSize: 1 << 30, Ops: 1, OffsetRange: 4096}); err == nil {
		t.Fatal("block size > range accepted")
	}
}

func TestDeterminism(t *testing.T) {
	spec := JobSpec{
		Name: "det", ReadPct: 30, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 8, Jobs: 2, Ops: 100, Seed: 42,
	}
	a := runSpec(t, "deliba-k-hw", spec)
	b := runSpec(t, "deliba-k-hw", spec)
	if a.Lat.Mean() != b.Lat.Mean() || a.Elapsed != b.Elapsed {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v",
			a.Lat.Mean(), a.Elapsed, b.Lat.Mean(), b.Elapsed)
	}
}

func TestThinkTimeSlowsOffender(t *testing.T) {
	fast := runSpec(t, "deliba-k-sw", JobSpec{
		Name: "nothink", ReadPct: 100, Pattern: core.Seq,
		BlockSize: 4096, QueueDepth: 1, Jobs: 1, Ops: 30, Seed: 8,
	})
	slow := runSpec(t, "deliba-k-sw", JobSpec{
		Name: "think", ReadPct: 100, Pattern: core.Seq,
		BlockSize: 4096, QueueDepth: 1, Jobs: 1, Ops: 30, Seed: 8,
		ThinkTime: 200 * sim.Microsecond,
	})
	if slow.Elapsed <= fast.Elapsed {
		t.Fatal("think time had no effect")
	}
}

func TestSpecString(t *testing.T) {
	s := JobSpec{ReadPct: 100, Pattern: core.Rand, BlockSize: 4096, QueueDepth: 8, Jobs: 3}
	if s.String() != "rand-read-4096B-qd8-j3" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestBlockSplitMixesSizes(t *testing.T) {
	res := runSpec(t, "deliba-k-sw", JobSpec{
		Name: "bssplit", ReadPct: 100, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 4, Jobs: 1, Ops: 300, Seed: 9,
		BlockSplit: []SizeWeight{{4096, 70}, {65536, 30}},
	})
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// Mean bytes/op must land between the two sizes.
	bytesPerOp := float64(res.Meter.Bytes()) / float64(res.Meter.Ops())
	if bytesPerOp <= 4096 || bytesPerOp >= 65536 {
		t.Fatalf("bytes/op = %.0f, expected a mix", bytesPerOp)
	}
	// Rough weighting check: expected ≈ 0.7*4k + 0.3*64k ≈ 22528.
	if bytesPerOp < 12000 || bytesPerOp > 35000 {
		t.Fatalf("bytes/op = %.0f, want ~22500", bytesPerOp)
	}
}

func TestZipfGenSkewAndDeterminism(t *testing.T) {
	const n = 4096
	z := newZipfGen(n, 0.99)
	counts := make([]int, n)
	rng := sim.NewRNG(11)
	draws := 200000
	for i := 0; i < draws; i++ {
		r := z.next(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of [0,%d)", r, n)
		}
		counts[r]++
	}
	// Rank 0 must dwarf the uniform share (draws/n ≈ 49) and the tail.
	if counts[0] < 20*draws/n {
		t.Fatalf("rank 0 drew %d times, want heavy skew (uniform share %d)", counts[0], draws/n)
	}
	if counts[0] <= counts[n-1]*10 {
		t.Fatalf("head (%d) not ≫ tail (%d)", counts[0], counts[n-1])
	}
	// Same seed, same stream.
	a, b := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 1000; i++ {
		if z.next(a) != z.next(b) {
			t.Fatal("zipf stream diverged for equal seeds")
		}
	}
}

func TestZipfWorkloadRuns(t *testing.T) {
	res := runSpec(t, "deliba-k-hw", JobSpec{
		Name: "zipf", ReadPct: 100, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 8, Jobs: 2, Ops: 200, Seed: 12,
		OffsetRange: 64 << 20, ZipfTheta: 0.99,
	})
	if res.Errors != 0 || res.Lat.Count() != 400 {
		t.Fatalf("errors=%d measured=%d", res.Errors, res.Lat.Count())
	}
}

func TestHotRangeWorkloadRuns(t *testing.T) {
	spec := JobSpec{
		Name: "hot", ReadPct: 70, Pattern: core.Rand,
		BlockSize: 4096, QueueDepth: 8, Jobs: 2, Ops: 200, Seed: 13,
		OffsetRange: 256 << 20, HotOpPct: 90, HotRangeBytes: 2 << 20,
	}
	a := runSpec(t, "deliba-k-hw", spec)
	b := runSpec(t, "deliba-k-hw", spec)
	if a.Errors != 0 {
		t.Fatalf("errors = %d", a.Errors)
	}
	if a.Lat.Mean() != b.Lat.Mean() || a.Elapsed != b.Elapsed {
		t.Fatal("hot-range workload not deterministic for equal seeds")
	}
}

func TestBlockSplitValidation(t *testing.T) {
	tb, stack := newStack(t, "deliba-k-sw")
	if _, err := Run(tb.Eng, stack, JobSpec{
		BlockSize: 4096, Ops: 1,
		BlockSplit: []SizeWeight{{0, 1}},
	}); err == nil {
		t.Fatal("zero-size split entry accepted")
	}
	if _, err := Run(tb.Eng, stack, JobSpec{
		BlockSize: 4096, Ops: 1, OffsetRange: 8192,
		BlockSplit: []SizeWeight{{65536, 1}},
	}); err == nil {
		t.Fatal("split size beyond range accepted")
	}
}
