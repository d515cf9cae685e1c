package fio

import (
	"testing"

	"repro/internal/core"
)

func runTenantSpec(t *testing.T, qos core.QoSKind, spec TenantJob) *TenantResult {
	t.Helper()
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.ParseStackSpec("deliba-k-hw")
	if err != nil {
		t.Fatal(err)
	}
	sp.QoS = qos
	stack, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTenants(tb.Eng, stack, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tenantSmokeJob(seed uint64) TenantJob {
	return TenantJob{
		Job: JobSpec{
			Name: "tenants", ReadPct: 70, Pattern: core.Rand,
			BlockSize: 4096, QueueDepth: 4, Jobs: 2, Ops: 120, Seed: seed,
		},
		Tenants:      5,
		TenantTheta:  0.9,
		Hog:          1,
		HogDepth:     16,
		HogBlockSize: 64 << 10,
	}
}

func TestRunTenantsAttribution(t *testing.T) {
	res := runTenantSpec(t, core.QoSNone, tenantSmokeJob(3))
	if res.Base.Errors != 0 {
		t.Fatalf("errors = %d", res.Base.Errors)
	}
	// Victim aggregate excludes the hog; per-tenant includes it.
	if got := res.Base.Lat.Count(); got != 240 { // 2 jobs x 120 ops
		t.Fatalf("victim ops = %d, want 240", got)
	}
	var victimOps uint64
	for _, id := range res.PerTenant.Tenants() {
		if id == res.Hog {
			continue
		}
		victimOps += res.PerTenant.Hist(id).Count()
	}
	if victimOps != 240 {
		t.Fatalf("per-tenant victim ops sum to %d, want 240", victimOps)
	}
	if res.Hog != 1 || res.HogHist() == nil || res.HogHist().Count() == 0 {
		t.Fatal("hog tenant produced no attributed ops")
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness %v outside (0, 1]", res.Fairness)
	}
	if res.ServiceUnits[res.Hog] == 0 {
		t.Fatal("hog earned no contention-window service units")
	}
	// Zipf theta 0.9 must skew the draw: the hottest victim tenant sees
	// strictly more ops than the coldest.
	ids := res.PerTenant.Tenants()
	hot, cold := uint64(0), uint64(1<<62)
	for _, id := range ids {
		if id == res.Hog {
			continue
		}
		c := res.PerTenant.Hist(id).Count()
		if c > hot {
			hot = c
		}
		if c < cold {
			cold = c
		}
	}
	if hot <= cold {
		t.Fatalf("zipf draw flat: hottest %d vs coldest %d", hot, cold)
	}
}

func TestRunTenantsDeterminism(t *testing.T) {
	digest := func() [4]uint64 {
		res := runTenantSpec(t, core.QoSDMClock, tenantSmokeJob(7))
		return [4]uint64{
			res.Base.Lat.Count(),
			uint64(res.Base.Lat.Mean()),
			uint64(res.VictimHist().Percentile(99)),
			uint64(res.ServiceUnits[res.Hog]),
		}
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("tenant run not deterministic: %v vs %v", a, b)
	}
}

func TestRunTenantsDegradesToSingleTenant(t *testing.T) {
	spec := tenantSmokeJob(11)
	spec.Tenants = 0
	spec.Hog = 0
	res := runTenantSpec(t, core.QoSNone, spec)
	if got := res.PerTenant.Len(); got != 1 {
		t.Fatalf("tenant histograms = %d, want 1", got)
	}
	if res.PerTenant.Hist(1) == nil {
		t.Fatal("single-tenant traffic must attribute to tenant 1")
	}
	if res.Fairness != 1 {
		t.Fatalf("single-tenant fairness = %v, want 1", res.Fairness)
	}
}

func TestQoSShapesHogNotVictims(t *testing.T) {
	none := runTenantSpec(t, core.QoSNone, tenantSmokeJob(5))
	dmc := runTenantSpec(t, core.QoSDMClock, tenantSmokeJob(5))
	np99 := none.VictimHist().Percentile(99)
	dp99 := dmc.VictimHist().Percentile(99)
	if dp99 >= np99 {
		t.Errorf("dmclock victim p99 %v not better than unscheduled %v", dp99, np99)
	}
	if dmc.Fairness <= none.Fairness {
		t.Errorf("dmclock fairness %.3f not above unscheduled %.3f",
			dmc.Fairness, none.Fairness)
	}
}
