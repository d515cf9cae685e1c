package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// scaled returns w with both op counts multiplied by f (tests run tiny
// rounds); every job keeps at least QD ops of each kind.
func (w workload) scaled(f float64) workload {
	if f == 1 {
		return w
	}
	floor := w.Jobs * w.QD
	w.WarmOps = max(int(float64(w.WarmOps)*f), floor)
	w.Ops = max(int(float64(w.Ops)*f), floor)
	return w
}

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(0.002)
		a, b, c := genStreams(w, 7), genStreams(w, 7), genStreams(w, 8)
		if len(a) != w.Jobs {
			t.Fatalf("%s: %d streams for %d jobs", w.Name, len(a), w.Jobs)
		}
		same, differs := true, false
		for j := range a {
			same = same && slices.Equal(a[j], b[j])
			differs = differs || !slices.Equal(a[j], c[j])
			for _, v := range a[j] {
				if off := int64(v &^ opWrite); off%blockSize != 0 || off+blockSize > w.RangeBytes {
					t.Fatalf("%s: offset %d outside the %d-byte range or unaligned", w.Name, off, w.RangeBytes)
				}
			}
		}
		if !same {
			t.Errorf("%s: seed 7 generated two different op streams", w.Name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same op streams", w.Name)
		}
	}
}

func TestZipfTopRankFrequencies(t *testing.T) {
	const n, theta, draws = 1 << 18, 0.99, 400_000
	z := newZipf(n, theta)
	rng := rand.New(rand.NewPCG(1, 2))
	var counts [2]int
	for i := 0; i < draws; i++ {
		if r := z.next(rng); r < 2 {
			counts[r]++
		}
	}
	for r, c := range counts {
		want := math.Pow(float64(r+1), -theta) / zeta(n, theta)
		got := float64(c) / draws
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("rank %d frequency %.5f, theory %.5f", r+1, got, want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 1}, {1, 1}, {50, 50}, {99, 99}, {99.5, 100}, {99.99, 100}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{42}, 99.99); got != 42 {
		t.Errorf("p99.99 of one sample = %d", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

// pb appends one protobuf field; a []byte payload is length-delimited and
// a uint64 is a varint.
func pb(dst []byte, field int, v any) []byte {
	switch v := v.(type) {
	case []byte:
		dst = binary.AppendUvarint(dst, uint64(field)<<3|2)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		return append(dst, v...)
	case uint64:
		dst = binary.AppendUvarint(dst, uint64(field)<<3)
		return binary.AppendUvarint(dst, v)
	}
	panic("pb: unsupported value")
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a profile.proto with the given functions (ids
// from 1) and locations (ids from 1, each a list of function ids, innermost
// first), and samples of (count, location ids leaf first).
func syntheticProfile(t *testing.T, funcs []string, locs [][]uint64, samples [][]uint64) []byte {
	var msg []byte
	msg = pb(msg, 6, []byte(""))
	for i, f := range funcs {
		msg = pb(msg, 6, []byte(f))
		var fn []byte
		fn = pb(fn, 1, uint64(i+1))
		fn = pb(fn, 2, uint64(i+1))
		msg = pb(msg, 5, fn)
	}
	for i, fids := range locs {
		var loc []byte
		loc = pb(loc, 1, uint64(i+1))
		for _, f := range fids {
			loc = pb(loc, 4, pb(nil, 1, f))
		}
		msg = pb(msg, 4, loc)
	}
	for i, s := range samples {
		var sm []byte
		if i%2 == 0 {
			sm = pb(sm, 1, packed(s[1:]...))
			sm = pb(sm, 2, packed(s[0], s[0]*1e7))
		} else { // unpacked repeated fields decode too
			for _, l := range s[1:] {
				sm = pb(sm, 1, l)
			}
			sm = pb(sm, 2, s[0])
			sm = pb(sm, 2, s[0]*1e7)
		}
		msg = pb(msg, 2, sm)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeCPUOnSyntheticProfile(t *testing.T) {
	funcs := []string{
		"repro/internal/sim.(*Engine).RunUntil",   // 1
		"runtime.chanrecv1",                       // 2
		"runtime.mallocgc",                        // 3
		"repro/internal/rbd.(*Image).ObjectName",  // 4
		"repro/internal/core.(*Fanout).WriteRepl", // 5
		"runtime.gcBgMarkWorker",                  // 6
		"main.(*loop).done",                       // 7
		"runtime.morestack",                       // 8
		"runtime.futex",                           // 9
		"repro/internal/erasure.Encode",           // 10
	}
	locs := [][]uint64{
		{1},    // 1
		{2},    // 2
		{3},    // 3
		{4, 5}, // 4: ObjectName inlined into WriteRepl
		{6},    // 5
		{7},    // 6
		{8},    // 7
		{9},    // 8
		{10},   // 9
		{5},    // 10
	}
	samples := [][]uint64{
		{3, 2, 1},     // chanrecv under sim: sim, handoff
		{2, 3, 4, 1},  // mallocgc under inlined rbd: rbd, malloc
		{4, 5},        // GC worker: runtime_gc
		{1, 6, 1},     // bench
		{1, 7, 10, 1}, // stack growth under core
		{1, 8},        // runtime_other
		{1, 9},        // other repro package
	}
	got, err := decodeProfile(syntheticProfile(t, funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) || !slices.Equal(got[1].frames, []string{funcs[2], funcs[3], funcs[4], funcs[0]}) {
		t.Fatalf("decoded %+v", got)
	}
	shares, total := attributeCPU(got)
	if total != 13 {
		t.Fatalf("total samples %d, want 13", total)
	}
	want := map[string]float64{
		"cpu.sim_frac": 3, "cpu.rbd_frac": 2, "cpu.runtime_gc_frac": 4, "cpu.bench_frac": 1,
		"cpu.core_frac": 1, "cpu.runtime_other_frac": 1, "cpu.other_frac": 1,
		"cpu.chan_handoff_frac": 3, "cpu.malloc_frac": 2, "cpu.stack_growth_frac": 1,
	}
	for k, v := range shares {
		if w := want[k] / 13; math.Abs(v-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, v, w)
		}
	}
}

func TestLayerOfWaitRows(t *testing.T) {
	for row, want := range map[string]string{
		"blk-mq:wait":      "blockmq.wait_us",
		"osd-service:wait": "rados.wait_us",
		"kernel:wait":      "core.kernel_path_us",
		"no-such-span":     unmappedMetric,
	} {
		if got, _ := layerOf(row); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", row, got, want)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a small fraction of its op
// counts, timed and traced, and checks the round contracts: no failed check,
// equal completion digests, no unmapped span, and every metric BENCHMARK.json
// declares either measured by the round or added by the parent process.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	parentOnly := map[string]bool{"setup_s": true, "wall_ops_per_s": true, "peak_rss_mib": true, "trace.overhead_frac": true}
	for _, w := range workloads {
		w := w.scaled(0.005)
		timed, err := runRound(w, 3, false)
		if err != nil {
			t.Fatalf("%s timed: %v", w.Name, err)
		}
		traced, err := runRound(w, 3, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, r := range []*roundResult{timed, traced} {
			if len(r.Problems) > 0 {
				t.Errorf("%s: %v", w.Name, r.Problems)
			}
			if r.Failed != 0 || r.Attempted != (w.WarmOps+w.Ops)/w.Jobs*w.Jobs {
				t.Errorf("%s: %d failed of %d attempted", w.Name, r.Failed, r.Attempted)
			}
		}
		if timed.Digest != traced.Digest {
			t.Errorf("%s: traced digest %s, timed %s", w.Name, traced.Digest, timed.Digest)
		}
		if len(traced.Unmapped) > 0 {
			t.Errorf("%s: span rows missing from the layer table: %v", w.Name, traced.Unmapped)
		}
		if len(timed.SetupS) != setupReps || len(timed.SegmentOpsPerS) != segments {
			t.Errorf("%s: %d setup times and %d wall segments, want %d and %d",
				w.Name, len(timed.SetupS), len(timed.SegmentOpsPerS), setupReps, segments)
		}
		for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
			_, inTimed := timed.Metrics[m.Name]
			_, inTraced := traced.Metrics[m.Name]
			if !inTimed && !inTraced && !parentOnly[m.Name] {
				t.Errorf("%s: metric %s is declared but not measured", w.Name, m.Name)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := slices.Clone(xs)
		for i := range out {
			out[i] *= f
		}
		return out
	}
	for _, c := range []struct {
		m          metricSpec
		base, next []float64
		want       string
	}{
		{lower, base, shift(base, 1.01), "same"},
		{lower, base, shift(base, 1.10), "worse"},
		{higher, base, shift(base, 0.90), "worse"},
		{lower, base, shift(base, 0.80), "better"},
		{higher, base, shift(base, 1.04), "better"},
		{lower, base, []float64{70, 130, 80, 120, 100, 90, 110, 75, 125, 100}, "unresolved"},
	} {
		if _, got := verdict(c.m, c.base, c.next); got != c.want {
			t.Errorf("%s (%s is better): %v -> %v: verdict %s, want %s", c.m.Name, c.m.Better, c.base, c.next, got, c.want)
		}
	}
}
