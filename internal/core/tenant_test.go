package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTenantRidesTheRecord follows tenants 0, 1 and 2 through
// deliba-k-hw+qos-dmclock end to end: every op's tenant, set once in its
// record by SubmitTenant, must reach the dmclock scheduler as its own
// tenant, pick that tenant's queue set in UIFD (the PF's for tenant 0, a
// VF's otherwise) and mark the op's root span.
func TestTenantRidesTheRecord(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{SampleEvery: 1, TopK: 16})
	tb.EnableTracing(tr)
	sp, err := ParseStackSpec("deliba-k-hw+qos-dmclock")
	if err != nil {
		t.Fatal(err)
	}
	st, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	const tenants, perTenant = 3, 2
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Errorf("op failed: %v", err)
		}
		completed++
	}
	// Submit past one reservation gap, so each tenant's first reservation
	// tag is due on arrival; all ops ride ring 0 and blk-mq hctx 0.
	tb.Eng.Schedule(sim.Millisecond, func() {
		for i := 0; i < perTenant; i++ {
			for tenant := 0; tenant < tenants; tenant++ {
				st.SubmitTenant(Write, Rand, int64(tenant*perTenant+i)*4096, 4096, 0, tenant, done)
			}
		}
	})
	tb.Eng.Run()
	st.Close()
	if completed != tenants*perTenant {
		t.Fatalf("%d ops completed, want %d", completed, tenants*perTenant)
	}

	// dmclock keeps reservation tags per tenant: each tenant's first op is
	// due at once, its second a reservation gap later. Had the ops shared
	// one tenant, only the very first would dispatch in the reservation
	// phase.
	if q := tb.QoSSched.QoS(); q.ResPhase != tenants || q.Dispatched != tenants*perTenant {
		t.Errorf("dmclock dispatched %d (%d in the reservation phase), want %d (%d)",
			q.Dispatched, q.ResPhase, tenants*perTenant, tenants)
	}

	// Each tenant's writes are one H2C and one C2H transfer apiece on its
	// own queue set.
	drv := st.(*pipelineStack).drv
	pf := drv.QueueSets()[0]
	seen := map[any]int{}
	for tenant := 0; tenant < tenants; tenant++ {
		qs := drv.QueueSetFor(0, tenant)
		if (qs == pf) != (tenant == 0) {
			t.Errorf("tenant %d rides the PF queue set: %v, want %v", tenant, qs == pf, tenant == 0)
		}
		if other, dup := seen[qs]; dup {
			t.Errorf("tenants %d and %d share a queue set", other, tenant)
		}
		seen[qs] = tenant
		if got := qs.Completions(); got != 2*perTenant {
			t.Errorf("tenant %d queue set completed %d transfers, want %d", tenant, got, 2*perTenant)
		}
	}

	// Every root span carries its op's tenant.
	roots := make([]int, tenants)
	for _, s := range tr.Finalize("tenant").Spans {
		if s.Parent == 0 {
			roots[s.Tenant]++
		}
	}
	for tenant, n := range roots {
		if n != perTenant {
			t.Errorf("tenant %d marks %d root spans, want %d", tenant, n, perTenant)
		}
	}
}
