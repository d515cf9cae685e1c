package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// precisions are the two sub-bucket precisions in use: the default and the
// per-tenant one. Every histogram test runs once per precision.
var precisions = []uint{defaultSubBits, tenantSubBits}

// forPrecisions runs f as one subtest per precision ("5bit", "4bit").
func forPrecisions(t *testing.T, f func(t *testing.T, subBits uint)) {
	for _, b := range precisions {
		t.Run(fmt.Sprintf("%dbit", b), func(t *testing.T) { f(t, b) })
	}
}

func TestHistogramBasics(t *testing.T) {
	forPrecisions(t, func(t *testing.T, subBits uint) {
		h := newHistogram(subBits)
		if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 {
			t.Fatal("empty histogram must read as zeros")
		}
		for i := 1; i <= 100; i++ {
			h.Record(sim.Duration(i) * sim.Microsecond)
		}
		if h.Count() != 100 {
			t.Fatalf("Count = %d", h.Count())
		}
		if h.Min() != sim.Microsecond {
			t.Fatalf("Min = %v", h.Min())
		}
		if h.Max() != 100*sim.Microsecond {
			t.Fatalf("Max = %v", h.Max())
		}
		mean := h.Mean()
		if mean < 50*sim.Microsecond || mean > 51*sim.Microsecond {
			t.Fatalf("Mean = %v", mean)
		}

		z := newHistogram(subBits)
		z.Record(0)
		z.Record(-5) // clamped to 0
		if z.Count() != 2 || z.Min() != 0 || z.Max() != 0 {
			t.Fatalf("zero/negative records: count=%d min=%v max=%v", z.Count(), z.Min(), z.Max())
		}
		if z.Percentile(0) != 0 || z.Percentile(100) != 0 {
			t.Fatal("percentile extremes must return exact min/max")
		}
	})
}

// TestHistogramPercentileAccuracy bounds the quantile error against exact
// order statistics on an exponential stream and on a latency-shaped stream
// (a dense body with a heavy tail). A bucket lower bound is within
// 1/(1<<subBits) of the value: ~3% at 5 bits, ~6.25% at 4 bits.
func TestHistogramPercentileAccuracy(t *testing.T) {
	bound := map[uint]float64{defaultSubBits: 0.05, tenantSubBits: 0.07}
	streams := map[string]func(rng *sim.RNG) sim.Duration{
		"exp": func(rng *sim.RNG) sim.Duration { return rng.ExpDuration(80 * sim.Microsecond) },
		"heavy-tail": func(rng *sim.RNG) sim.Duration {
			if rng.Intn(100) < 3 {
				return sim.Duration(2+rng.Intn(30)) * sim.Millisecond
			}
			return sim.Duration(50+rng.Intn(200)) * sim.Microsecond
		},
	}
	forPrecisions(t, func(t *testing.T, subBits uint) {
		for name, next := range streams {
			h := newHistogram(subBits)
			var samples []sim.Duration
			rng := sim.NewRNG(42)
			for i := 0; i < 50000; i++ {
				d := next(rng)
				samples = append(samples, d)
				h.Record(d)
			}
			if h.Min() != ExactPercentile(samples, 0) || h.Max() != ExactPercentile(samples, 100) {
				t.Fatalf("%s: extremes %v/%v are not exact", name, h.Min(), h.Max())
			}
			for _, q := range []float64{10, 50, 90, 95, 99, 99.9} {
				got := float64(h.Percentile(q))
				want := float64(ExactPercentile(samples, q))
				if want == 0 {
					continue
				}
				if relErr := math.Abs(got-want) / want; relErr > bound[subBits] {
					t.Errorf("%s p%v: got %v want %v (relErr %.3f)", name, q, got, want, relErr)
				}
			}
		}
	})
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	forPrecisions(t, func(t *testing.T, subBits uint) {
		f := func(vals []uint32) bool {
			if len(vals) == 0 {
				return true
			}
			h := newHistogram(subBits)
			for _, v := range vals {
				h.Record(sim.Duration(v))
			}
			prev := sim.Duration(-1)
			for q := 0.0; q <= 100; q += 2.5 {
				p := h.Percentile(q)
				if p < prev {
					return false
				}
				if p < h.Min() || p > h.Max() {
					return false
				}
				prev = p
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHistogramRelativeErrorBound(t *testing.T) {
	// Every recorded value must land in a bucket whose lower bound is within
	// ~2/(1<<subBits) relative error of the value itself.
	forPrecisions(t, func(t *testing.T, subBits uint) {
		sub := int64(1) << subBits
		f := func(v uint64) bool {
			val := int64(v >> 1) // keep positive
			low := bucketLow(bucketIndex(val, subBits), subBits)
			if low > val {
				return false
			}
			if val < sub {
				return low == val
			}
			return float64(val-low)/float64(val) < 2.0/float64(sub)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHistogramMerge(t *testing.T) {
	forPrecisions(t, func(t *testing.T, subBits uint) {
		a, b, both := newHistogram(subBits), newHistogram(subBits), newHistogram(subBits)
		rng := sim.NewRNG(7)
		for i := 0; i < 5000; i++ {
			v := sim.Duration(rng.Intn(1 << 20))
			if i%2 == 0 {
				a.Record(v)
			} else {
				b.Record(v)
			}
			both.Record(v)
		}
		b.Record(sim.Second) // b reaches past a's buckets
		both.Record(sim.Second)
		a.Merge(b)
		a.Merge(nil)
		a.Merge(newHistogram(subBits))
		if a.Count() != both.Count() || a.Mean() != both.Mean() ||
			a.Min() != both.Min() || a.Max() != both.Max() {
			t.Fatalf("merge mismatch: %v vs %v", a.Summarize(), both.Summarize())
		}
		for _, q := range []float64{50, 99, 99.9, 99.99} {
			if a.Percentile(q) != both.Percentile(q) {
				t.Errorf("p%v: merged %v != direct %v", q, a.Percentile(q), both.Percentile(q))
			}
		}
	})
}

// TestHistogramMergeRejectsPrecisionMismatch: buckets of different
// precisions cover different ranges, so Merge refuses to add them.
func TestHistogramMergeRejectsPrecisionMismatch(t *testing.T) {
	a, b := newHistogram(defaultSubBits), newHistogram(tenantSubBits)
	a.Record(100)
	b.Record(200)
	defer func() {
		if recover() == nil {
			t.Fatal("Merge accepted a histogram of another precision")
		}
		if a.Count() != 1 || a.Max() != 100 {
			t.Fatalf("rejected merge changed the target: %v", a.Summarize())
		}
	}()
	a.Merge(b)
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * sim.Microsecond)
	s := h.Summarize().String()
	if !strings.Contains(s, "n=1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(0)
	for i := 1; i <= 1000; i++ {
		m.Add(sim.Time(i)*sim.Time(sim.Millisecond), 4096)
	}
	// 1000 ops over 1 second.
	if got := m.IOPS(); math.Abs(got-1000) > 1 {
		t.Fatalf("IOPS = %v", got)
	}
	if got := m.KIOPS(); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("KIOPS = %v", got)
	}
	wantMBps := 4096.0 * 1000 / 1e6
	if got := m.ThroughputMBps(); math.Abs(got-wantMBps) > 0.1 {
		t.Fatalf("MBps = %v want %v", got, wantMBps)
	}
}

func TestMeterCloseAt(t *testing.T) {
	m := NewMeter(0)
	m.Add(sim.Time(sim.Millisecond), 100)
	m.CloseAt(sim.Time(2 * sim.Second))
	if got := m.IOPS(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("IOPS after CloseAt = %v", got)
	}
}

func TestMeterEmpty(t *testing.T) {
	m := NewMeter(100)
	if m.IOPS() != 0 || m.ThroughputMBps() != 0 {
		t.Fatal("empty meter reported nonzero rates")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 2.5)
	s := tb.String()
	if !strings.Contains(s, "== Demo ==") {
		t.Fatalf("missing title: %q", s)
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "2.50") {
		t.Fatalf("missing cells: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines: %q", len(lines), s)
	}
	if tb.NumRows() != 2 || tb.Cell(1, 1) != "2.50" {
		t.Fatalf("accessors wrong")
	}
}

func TestExactPercentile(t *testing.T) {
	s := []sim.Duration{10, 20, 30, 40, 50}
	if got := ExactPercentile(s, 50); got != 30 {
		t.Fatalf("p50 = %v", got)
	}
	if got := ExactPercentile(s, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := ExactPercentile(s, 100); got != 50 {
		t.Fatalf("p100 = %v", got)
	}
	if got := ExactPercentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}
