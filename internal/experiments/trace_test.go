package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/trace"
)

// encodeSweep runs the quick trace sweep and returns its encoded bytes.
func encodeSweep(t *testing.T) []byte {
	t.Helper()
	res, err := TraceSweep(Quick(), DefaultTraceSample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceSweepDeterminism is the tentpole's replay invariant: the
// encoded trace file must be byte-identical whether cells run serially or
// fanned out over 4 workers.
func TestTraceSweepDeterminism(t *testing.T) {
	serial := func() []byte {
		prev := SetParallelism(1)
		defer SetParallelism(prev)
		return encodeSweep(t)
	}()

	parallel := func() []byte {
		prev := SetParallelism(4)
		defer SetParallelism(prev)
		return encodeSweep(t)
	}()
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace file differs between serial and -parallel 4 runs (%d vs %d bytes)", len(serial), len(parallel))
	}
}

// TestTraceSweepContent sanity-checks the sweep output: every cell
// produced sampled traces with exemplars, the software stack's critical
// path reaches the OSD service stage, and fault cells retained
// cause-linked exemplars.
func TestTraceSweepContent(t *testing.T) {
	res, err := TraceSweep(Quick(), DefaultTraceSample)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("trace sweep produced no cells")
	}
	for _, c := range res.Cells {
		if c.Ops == 0 {
			t.Errorf("cell %s: no root ops recorded", c.Cell)
		}
		if c.Sampled == 0 {
			t.Errorf("cell %s: no sampled traces", c.Cell)
		}
		if len(c.Exemplars) == 0 {
			t.Errorf("cell %s: no exemplars retained", c.Cell)
		}
		if len(c.CritPath) == 0 {
			t.Errorf("cell %s: empty critical path", c.Cell)
		}
	}

	sw, ok := res.Cell("fig3/deliba-k-sw/rand-read/4k")
	if !ok {
		var labels []string
		for _, c := range res.Cells {
			labels = append(labels, c.Cell)
		}
		t.Fatalf("missing DK-SW fig3 cell; have %v", labels)
	}
	found := false
	for _, ps := range sw.CritPath {
		if ps.Name == "osd-service" || ps.Name == "osd-service:wait" {
			found = true
		}
	}
	if !found {
		t.Errorf("DK-SW critical path never reaches osd-service: %+v", sw.CritPath)
	}

	// The hardware stack's path must descend through the card pipeline.
	hw, ok := res.Cell("fig3/deliba-k-hw/rand-read/4k")
	if !ok {
		t.Fatal("missing DK-HW fig3 cell")
	}
	names := map[string]bool{}
	for _, ps := range hw.CritPath {
		names[ps.Name] = true
	}
	for _, want := range []string{"osd-service"} {
		ok := false
		for n := range names {
			if n == want || n == want+":wait" {
				ok = true
			}
		}
		if !ok {
			t.Errorf("DK-HW critical path missing %s: %+v", want, hw.CritPath)
		}
	}

	// Fault cells trace every op and must retain at least one cause-linked
	// exemplar (retry/failover chains from the injected partition).
	fc, ok := res.Cell("faults/deliba-k-sw/partition")
	if !ok {
		t.Fatal("missing DK-SW partition fault cell")
	}
	if uint64(fc.Sampled) != fc.Ops {
		t.Errorf("fault cell sampled %d of %d ops; want every op", fc.Sampled, fc.Ops)
	}
	cause := false
	for _, ex := range fc.Exemplars {
		if ex.Cause {
			cause = true
		}
	}
	if !cause {
		t.Errorf("fault cell retained no cause-linked exemplars")
	}
}

// TestTraceFileRoundTrip: the encoded sweep must validate against the
// trace_event schema and decode back with the summary intact.
func TestTraceFileRoundTrip(t *testing.T) {
	res, err := TraceSweep(Quick(), DefaultTraceSample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateTraceEvents(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("encoded sweep fails schema validation: %v", err)
	}
	f, err := trace.ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Summary.Cells) != len(res.Cells) {
		t.Fatalf("summary has %d cells, want %d", len(f.Summary.Cells), len(res.Cells))
	}
}

// perturbFingerprint runs one fio workload on a fresh testbed and folds
// every externally visible measurement into a string. traced toggles
// SampleEvery=1 tracing; the fingerprints must be identical either way —
// tracing may not perturb the simulation by a single event.
func perturbFingerprint(t *testing.T, spec string, traced bool) string {
	t.Helper()
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		tb.EnableTracing(trace.New(trace.Config{SampleEvery: 1, Salt: 7}))
	}
	sp, err := core.ParseStackSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       "perturb",
		ReadPct:    70,
		Pattern:    core.Rand,
		BlockSize:  4096,
		QueueDepth: 8,
		Jobs:       3,
		Ops:        150,
		RampOps:    20,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d|%d|%d|%d|%.9g|%.9g|%d",
		int64(res.Lat.Mean()), int64(res.Lat.Percentile(99)), int64(res.Lat.Max()),
		res.Errors, res.MBps(), res.KIOPS(), res.Lat.Count())
}

// TestTracingZeroPerturbation proves the zero-cost-when-sampling claim
// end to end: enabling full-rate tracing leaves every latency and
// throughput statistic bit-identical on the software stack, the hardware
// stack, and the cache-tier composition.
func TestTracingZeroPerturbation(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"dksw", "deliba-k-sw"},
		{"dkhw", "deliba-k-hw"},
		{"cache", "deliba-k-hw+cache-lsvd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off := perturbFingerprint(t, tc.spec, false)
			on := perturbFingerprint(t, tc.spec, true)
			if off != on {
				t.Errorf("tracing perturbed the simulation:\n  off: %s\n  on:  %s", off, on)
			}
		})
	}
}

// TestFamilyProbe: the report's observability probe must return stage
// summaries for every family with a probe cell, and the fault probe must
// surface non-zero resilience counters.
func TestFamilyProbe(t *testing.T) {
	cfg := Quick()
	for _, fam := range Families() {
		if fam.probe == nil {
			continue
		}
		name := fam.Name
		res, err := FamilyProbe(cfg, name)
		if err != nil {
			t.Fatalf("probe %s: %v", name, err)
		}
		if len(res.Stages) == 0 {
			t.Errorf("probe %s: no stage summaries", name)
		}
		for _, s := range res.Stages {
			if s.Ops == 0 {
				t.Errorf("probe %s: stage %s has zero ops", name, s.Stage)
			}
			if s.MaxUs < s.P99Us || s.P99Us < s.P50Us {
				t.Errorf("probe %s: stage %s summary not monotonic: %+v", name, s.Stage, s)
			}
		}
	}
	faulty, err := FamilyProbe(cfg, "faults")
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.Resilience.Any() {
		t.Errorf("fault probe recorded no resilience activity: %+v", faulty.Resilience)
	}
	if empty, err := FamilyProbe(cfg, "buckets"); err != nil || len(empty.Stages) != 0 {
		t.Errorf("unmapped family should probe empty, got %+v err %v", empty, err)
	}
}
