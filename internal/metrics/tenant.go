package metrics

import (
	"sort"

	"repro/internal/sim"
)

// This file holds the per-tenant measurement layer: a TenantSet that lazily
// grows one histogram per observed tenant, and Jain's fairness index over
// per-tenant throughput.

// tenantSubBits is the per-tenant histogram precision: 16 sub-buckets per
// power of two (≤ ~6% relative error), half the default, so one histogram
// per tenant stays small at 10,000-tenant scale.
const tenantSubBits = 4

// TenantSummary is one tenant's latency/throughput snapshot.
type TenantSummary struct {
	Tenant int
	Count  uint64
	Mean   sim.Duration
	P50    sim.Duration
	P99    sim.Duration
	P999   sim.Duration
	Max    sim.Duration
}

// TenantSet keeps one histogram per observed tenant, at tenantSubBits
// precision, growing lazily so untenanted runs allocate nothing.
type TenantSet struct {
	hists map[int]*Histogram
}

// NewTenantSet returns an empty per-tenant histogram set.
func NewTenantSet() *TenantSet {
	return &TenantSet{hists: make(map[int]*Histogram)}
}

// Record adds one observation for a tenant.
func (ts *TenantSet) Record(tenant int, d sim.Duration) {
	h := ts.hists[tenant]
	if h == nil {
		h = newHistogram(tenantSubBits)
		ts.hists[tenant] = h
	}
	h.Record(d)
}

// Hist returns the tenant's histogram (nil if it never recorded).
func (ts *TenantSet) Hist(tenant int) *Histogram { return ts.hists[tenant] }

// Len returns the number of tenants with at least one observation.
func (ts *TenantSet) Len() int { return len(ts.hists) }

// Tenants returns the observed tenant IDs in ascending order.
func (ts *TenantSet) Tenants() []int {
	ids := make([]int, 0, len(ts.hists))
	for id := range ts.hists {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Merge folds another set's observations into ts.
func (ts *TenantSet) Merge(other *TenantSet) {
	if other == nil {
		return
	}
	for id, oh := range other.hists {
		h := ts.hists[id]
		if h == nil {
			h = newHistogram(tenantSubBits)
			ts.hists[id] = h
		}
		h.Merge(oh)
	}
}

// MergedExcept returns one histogram holding every tenant's observations
// except tenant skip's, e.g. the victim population beside a noisy tenant.
func (ts *TenantSet) MergedExcept(skip int) *Histogram {
	out := newHistogram(tenantSubBits)
	for id, h := range ts.hists {
		if id != skip {
			out.Merge(h)
		}
	}
	return out
}

// Summaries returns per-tenant snapshots in ascending tenant order.
func (ts *TenantSet) Summaries() []TenantSummary {
	out := make([]TenantSummary, 0, len(ts.hists))
	for _, id := range ts.Tenants() {
		h := ts.hists[id]
		out = append(out, TenantSummary{
			Tenant: id,
			Count:  h.Count(),
			Mean:   h.Mean(),
			P50:    h.Percentile(50),
			P99:    h.Percentile(99),
			P999:   h.Percentile(99.9),
			Max:    h.Max(),
		})
	}
	return out
}

// Fairness computes Jain's fairness index (Σx)² / (n·Σx²) over the given
// allocations. Empty or all-zero inputs return 0.
func Fairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
