package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestTenantSetMergeAndSummaries(t *testing.T) {
	a, b := NewTenantSet(), NewTenantSet()
	a.Record(3, 100)
	a.Record(1, 200)
	b.Record(1, 400)
	b.Record(7, 50)
	a.Merge(b)
	a.Merge(nil)
	if got := a.Tenants(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("tenants = %v, want [1 3 7]", got)
	}
	sums := a.Summaries()
	if sums[0].Tenant != 1 || sums[0].Count != 2 || sums[0].Mean != 300 {
		t.Fatalf("tenant 1 summary = %+v", sums[0])
	}
	if a.Hist(99) != nil {
		t.Fatal("unobserved tenant must have no histogram")
	}
	if v := a.MergedExcept(1); v.Count() != 2 || v.Min() != 50 || v.Max() != 100 {
		t.Fatalf("all but tenant 1: %v, want tenants 3 and 7", v.Summarize())
	}
	if v := a.MergedExcept(0); v.Count() != 4 || v.Max() != 400 {
		t.Fatalf("all tenants: %v", v.Summarize())
	}
}

// TestTenantSetFootprint records latency-shaped streams into 10,000
// tenants and bounds the bucket bytes each tenant holds by the 3,840 B
// (960 32-bit counts) that a fixed-size 4-bit histogram used to take. The
// buckets grow only through the largest power of two recorded, so a tenant
// whose tail reaches 100 ms holds 24 powers of two, 384 64-bit counts.
func TestTenantSetFootprint(t *testing.T) {
	const tenants = 10000
	ts := NewTenantSet()
	rng := sim.NewRNG(3)
	for i := 0; i < 20*tenants; i++ {
		d := sim.Duration(20+rng.Intn(400)) * sim.Microsecond
		if rng.Intn(100) == 0 {
			d = sim.Duration(1+rng.Intn(100)) * sim.Millisecond
		}
		ts.Record(1+rng.Intn(tenants), d)
	}
	ts.Record(1, 100*sim.Millisecond) // at least one tenant at the tail's end
	if ts.Len() != tenants {
		t.Fatalf("%d tenants observed, want %d", ts.Len(), tenants)
	}
	total, largest := 0, 0
	for _, id := range ts.Tenants() {
		b := cap(ts.Hist(id).buckets) * 8
		total += b
		largest = max(largest, b)
	}
	if largest > 3840 {
		t.Errorf("largest tenant holds %d B of buckets, want ≤ 3840", largest)
	}
	t.Logf("bucket bytes per tenant: mean %d, max %d", total/tenants, largest)
}

func TestFairness(t *testing.T) {
	if f := Fairness(nil); f != 0 {
		t.Errorf("empty fairness = %v", f)
	}
	if f := Fairness([]float64{0, 0, 0}); f != 0 {
		t.Errorf("all-zero fairness = %v", f)
	}
	if f := Fairness([]float64{5, 5, 5, 5}); math.Abs(f-1) > 1e-12 {
		t.Errorf("equal-share fairness = %v, want 1", f)
	}
	// One tenant hogging everything: Jain's floor is 1/n.
	if f := Fairness([]float64{10, 0, 0, 0}); math.Abs(f-0.25) > 1e-12 {
		t.Errorf("single-hog fairness = %v, want 0.25", f)
	}
	// Scale invariance: fairness depends on shares, not magnitudes.
	if a, b := Fairness([]float64{1, 2, 3}), Fairness([]float64{10, 20, 30}); math.Abs(a-b) > 1e-12 {
		t.Errorf("fairness not scale-invariant: %v vs %v", a, b)
	}
}
