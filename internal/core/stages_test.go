package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stageHists indexes a run's span stages by span name.
func stageHists(stages []trace.Stage) map[string]*metrics.Histogram {
	m := make(map[string]*metrics.Histogram, len(stages))
	for _, st := range stages {
		m[st.Name] = st.Hist
	}
	return m
}

func TestSpanStagesRecordPipeline(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{SampleEvery: 1})
	tb.EnableTracing(tr)
	stack, err := buildNamed(tb, "deliba-k-hw", true) // EC: exercises the encoder too
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := do(tb.Eng, stack, Write, Rand, int64(i)*8192, 8192, 0); err != nil {
			t.Errorf("op %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := do(tb.Eng, stack, Read, Rand, int64(i)*8192, 8192, 0); err != nil {
			t.Errorf("read %d: %v", i, err)
		}
	}
	tb.Eng.Run()
	stack.Close()

	stages := tr.Stages()
	st := stageHists(stages)
	for _, name := range []string{"io-write", "io-read", "kernel", "blk-mq", "card-pipeline",
		"crush-select", "rs-encode", "ec-shard-write", "ec-shard-read", "osd-service"} {
		if h := st[name]; h == nil || h.Count() == 0 {
			t.Fatalf("span stage %q not recorded:\n%s", name, trace.StageTable(stages))
		}
	}
	if got := st["kernel"].Count(); got != 15 {
		t.Fatalf("kernel stage ops = %d, want 15", got)
	}
	if got := st["rs-encode"].Count(); got != 10 {
		t.Fatalf("rs-encode stage ops = %d, want 10 (writes only)", got)
	}
	root := metrics.NewHistogram()
	root.Merge(st["io-write"])
	root.Merge(st["io-read"])
	if got := root.Count(); got != 15 {
		t.Fatalf("root stage ops = %d, want 15", got)
	}
	// The root span contains the kernel span, which contains blk-mq.
	if root.Mean() < st["kernel"].Mean() {
		t.Fatal("root span smaller than the kernel span")
	}
	if st["kernel"].Mean() < st["blk-mq"].Mean() {
		t.Fatal("kernel span smaller than the blk-mq span")
	}
	if st["crush-select"].Mean() >= st["kernel"].Mean() {
		t.Fatal("placement stage not smaller than the kernel span")
	}
	// The encoder occupies well under a microsecond per 8 kB op (Table I).
	if st["rs-encode"].Mean() > 2*sim.Microsecond {
		t.Fatalf("rs-encode stage mean %v too large", st["rs-encode"].Mean())
	}
}

// splitStagesFingerprint runs a mixed stream on a fully traced
// split-domain testbed and folds every span stage's histogram into a
// string.
func splitStagesFingerprint(t *testing.T, seed uint64) ([]trace.Stage, string) {
	t.Helper()
	tb, err := NewTestbed(splitConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{SampleEvery: 1})
	tb.EnableTracing(tr)
	sp, err := ParseStackSpec("deliba-k-sw+cache-lsvd")
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	splitOps(t, tb, stack, seed, nil)
	stack.Close()
	tb.Eng.Run() // drain the cache flusher's shutdown
	stages := tr.Stages()
	var b strings.Builder
	for _, st := range stages {
		h := st.Hist
		fmt.Fprintf(&b, "%s|%d|%d|%d|%d\n", st.Name, h.Count(), int64(h.Sum()), int64(h.Min()), int64(h.Max()))
	}
	return stages, b.String()
}

// TestSpanStagesSplitDomains pins the stage summary on a split-domain
// testbed: host-domain stages and the OSD-node domains' osd-service spans
// land in one summary, every histogram is sane, and the whole summary
// replays bit-identically. It also pins the cross-shard record path: the
// host and OSD-node domains record into their own sinks, which the summary
// reads after the drain.
func TestSpanStagesSplitDomains(t *testing.T) {
	stages, fp1 := splitStagesFingerprint(t, 7)
	st := stageHists(stages)
	for _, name := range []string{"io-read", "io-write", "kernel", "lsvd-cache", "osd-service"} {
		if h := st[name]; h == nil || h.Count() == 0 {
			t.Errorf("span stage %s not recorded on the split testbed:\n%s", name, trace.StageTable(stages))
		}
	}
	for _, s := range stages {
		if h := s.Hist; h.Min() < 0 || h.Max() < h.Min() {
			t.Errorf("stage %s histogram corrupt: min %v max %v", s.Name, h.Min(), h.Max())
		}
	}
	if _, fp2 := splitStagesFingerprint(t, 7); fp1 != fp2 {
		t.Fatalf("split-domain span stages not deterministic:\n%s\nvs\n%s", fp1, fp2)
	}
}

func TestEnableTracingIdempotent(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := trace.New(trace.Config{SampleEvery: 1})
	tb.EnableTracing(a)
	tb.EnableTracing(trace.New(trace.Config{SampleEvery: 1}))
	if tb.Tracer != a {
		t.Fatal("a second EnableTracing replaced the testbed's tracer")
	}
}
