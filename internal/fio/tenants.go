package fio

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the multi-tenant workload layer: Run's worker, with every op
// attributed to a tenant drawn from a Zipf-skewed tenant population before
// its offset is drawn, and an optional noisy-neighbor hog tenant hammering
// the stack from one more worker while the victim population runs. A
// single-tenant job without a hog submits exactly Run's op stream.
// Latencies are recorded per tenant, each in a metrics.Histogram at 4-bit
// precision, alongside the aggregate result, and Jain's fairness index
// summarizes the isolation.

// TenantJob describes a multi-tenant workload.
type TenantJob struct {
	// Job is the victim population's workload shape; Jobs workers issue
	// Ops+RampOps ops each, attributing every op to a drawn tenant.
	Job JobSpec
	// Tenants is the tenant population size; ops are attributed to IDs
	// 1..Tenants. 0 or 1 degrades to single-tenant (ID 1) traffic.
	Tenants int
	// TenantTheta Zipf-skews the per-op tenant draw (rank 0 = hottest
	// tenant); 0 draws tenants uniformly.
	TenantTheta float64
	// Hog designates one tenant ID as the noisy neighbor: a dedicated
	// worker pins to it and issues HogOps ops at HogDepth outstanding,
	// while the victim draw excludes it. 0 disables.
	Hog int
	// HogDepth is the hog's queue depth (default 32).
	HogDepth int
	// HogOps is the hog's op count (default 4× the victim ops per job).
	HogOps int
	// HogBlockSize is the hog's block size (default Job.BlockSize).
	HogBlockSize int
}

// TenantResult is a multi-tenant run's outcome.
type TenantResult struct {
	// Base aggregates the victim population (the hog is excluded from the
	// aggregate histograms and meter; it appears only per tenant).
	Base *Result
	// PerTenant holds one compact latency histogram per tenant, hog
	// included.
	PerTenant *metrics.TenantSet
	// ServiceUnits is each tenant's share of device service during the
	// contention window — the span until the last victim op completes, i.e.
	// while every tenant is competing. Service is cost-normalized (one unit
	// per started 4 KiB), so a hog's large blocks are charged at full
	// weight; hog ops finishing after the victims are excluded (a shaped
	// hog draining its backlog alone is not contention).
	ServiceUnits map[int]int64
	// Fairness is Jain's index over the per-tenant ServiceUnits shares:
	// 1 = every tenant got the same slice of the device while competing; a
	// hog monopolizing the window drives it toward 1/tenants.
	Fairness float64
	// Hog echoes the hog tenant ID (0 = none).
	Hog int
}

// svcUnitBlock is the cost-normalization quantum for ServiceUnits.
const svcUnitBlock = 4096

func svcUnits(size int) int64 {
	u := (int64(size) + svcUnitBlock - 1) / svcUnitBlock
	if u < 1 {
		u = 1
	}
	return u
}

// VictimHist merges the non-hog tenants' histograms into one victim-side
// aggregate (p50/p99/p999 of the victim population).
func (tr *TenantResult) VictimHist() *metrics.Histogram {
	return tr.PerTenant.MergedExcept(tr.Hog)
}

// HogHist returns the hog tenant's histogram (nil when no hog ran).
func (tr *TenantResult) HogHist() *metrics.Histogram {
	if tr.Hog == 0 {
		return nil
	}
	return tr.PerTenant.Hist(tr.Hog)
}

// RunTenants executes the multi-tenant workload on the stack and drives the
// engine until every operation (victim and hog) completes. The stack is
// closed afterwards. Each op's tenant identity rides down the pipeline
// through the stack's SubmitTenant.
func RunTenants(eng *sim.Engine, stack core.Stack, spec TenantJob) (*TenantResult, error) {
	if err := validate(&spec.Job, stack); err != nil {
		return nil, err
	}
	if spec.Tenants < 1 {
		spec.Tenants = 1
	}
	if spec.Hog != 0 && (spec.Hog < 1 || spec.Hog > spec.Tenants) {
		return nil, fmt.Errorf("fio: hog tenant %d outside population 1..%d", spec.Hog, spec.Tenants)
	}
	if spec.Hog != 0 && spec.Tenants < 2 {
		return nil, fmt.Errorf("fio: a hog needs at least one victim tenant")
	}
	if spec.HogDepth <= 0 {
		spec.HogDepth = 32
	}
	if spec.HogOps <= 0 {
		spec.HogOps = 4 * spec.Job.Ops
	}
	if spec.HogBlockSize <= 0 {
		spec.HogBlockSize = spec.Job.BlockSize
	}
	tr := &TenantResult{
		Base:         newResult(eng, spec.Job),
		PerTenant:    metrics.NewTenantSet(),
		ServiceUnits: make(map[int]int64),
		Hog:          spec.Hog,
	}
	js := spec.Job
	run := &tenantRun{res: tr, victimLeft: js.Jobs * (js.RampOps + js.Ops)}
	start := eng.Now()
	for j := 0; j < js.Jobs; j++ {
		w := newWorker(eng, stack, js, j, jobSeed(js, j))
		w.res, w.run, w.draw = tr.Base, run, newTenantDraw(spec)
		w.start()
	}
	if spec.Hog != 0 {
		// The noisy neighbor: one tenant, deep queue, uniform random
		// traffic over the whole range on the core after the victims'.
		hog := JobSpec{
			ReadPct:     js.ReadPct,
			Pattern:     core.Rand,
			BlockSize:   spec.HogBlockSize,
			QueueDepth:  spec.HogDepth,
			Jobs:        1,
			Ops:         spec.HogOps,
			OffsetRange: js.OffsetRange,
		}
		w := newWorker(eng, stack, hog, js.Jobs, js.Seed*0x9e3779b97f4a7c15+0x40a9)
		w.run, w.tenant = run, spec.Hog
		w.start()
	}
	eng.Run()
	tr.Base.Elapsed = eng.Now().Sub(start)
	tr.Base.Meter.CloseAt(eng.Now())
	tr.Fairness = fairnessByShare(tr.ServiceUnits)
	stack.Close()
	return tr, nil
}

// tenantRun is the shared contention-window state of one RunTenants call:
// the window is open while victim ops remain outstanding (the engine is
// single-threaded, so plain fields suffice).
type tenantRun struct {
	res        *TenantResult
	victimLeft int
}

// charge credits a completed op's cost-normalized service to its tenant if
// the contention window is still open.
func (run *tenantRun) charge(tenant, size int) {
	if run.victimLeft > 0 {
		run.res.ServiceUnits[tenant] += svcUnits(size)
	}
}

// fairnessByShare computes Jain's index over the per-tenant contention-
// window service shares. Shares, not latency, are what a scheduler can
// actually equalize: a hog's monopolization shows up as one giant share,
// while uniform victim suffering under a bypass scheduler would read as
// perfectly "fair" by any latency-evenness metric. Iteration is in sorted
// tenant order so the float accumulation is deterministic.
func fairnessByShare(units map[int]int64) float64 {
	ids := make([]int, 0, len(units))
	for id := range units {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	xs := make([]float64, 0, len(ids))
	for _, id := range ids {
		xs = append(xs, float64(units[id]))
	}
	return metrics.Fairness(xs)
}

// tenantDraw maps a per-op draw to a tenant ID in 1..spec.Tenants,
// excluding the hog (its traffic comes from the dedicated worker).
type tenantDraw struct {
	n    int64 // victim population size
	hog  int
	zipf *zipfGen
}

func newTenantDraw(spec TenantJob) *tenantDraw {
	d := &tenantDraw{n: int64(spec.Tenants), hog: spec.Hog}
	if spec.Hog != 0 {
		d.n--
	}
	if spec.TenantTheta > 0 && d.n > 1 {
		d.zipf = newZipfGen(d.n, spec.TenantTheta)
	}
	return d
}

func (d *tenantDraw) next(rng *sim.RNG) int {
	var rank int64
	if d.zipf != nil {
		rank = d.zipf.next(rng)
	} else if d.n > 1 {
		rank = rng.Int63n(d.n)
	}
	id := int(rank) + 1
	if d.hog != 0 && id >= d.hog {
		id++ // skip over the hog's slot
	}
	return id
}
