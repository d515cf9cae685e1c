package experiments

import (
	"testing"

	"repro/internal/core"
)

// tenantSweepSerialRef is the literal nested loop TenantSweep replaces — the
// serial leg of the determinism property.
func tenantSweepSerialRef(cfg Config) (*TenantSweepResult, error) {
	res := &TenantSweepResult{}
	for _, qos := range tenantQoSAxis {
		for _, sc := range tenantScenarios {
			cell, err := runTenantCell(cfg, qos, sc)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	for _, n := range tenantFleetSizes(cfg) {
		cell, err := runTenantFleetCell(cfg, n)
		if err != nil {
			return nil, err
		}
		res.Fleet = append(res.Fleet, cell)
	}
	return res, nil
}

// TestTenantSweepDigestInvariantAcrossParallelism proves the multi-tenant
// grid — per-tenant histograms, QoS scheduler counters and the Zipf fleet
// cells included — is bit-identical run serially, with 1 and 4 workers, and
// with 8-shard engines for the classic-testbed cells.
func TestTenantSweepDigestInvariantAcrossParallelism(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		cfg := determinismConfig(seed)
		ref, err := tenantSweepSerialRef(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Digest()
		for _, workers := range []int{1, 4} {
			withParallelism(t, workers, func() {
				got, err := TenantSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.Digest(); d != want {
					t.Errorf("seed %d, %d workers: digest %#x != serial reference %#x",
						seed, workers, d, want)
				}
			})
		}
		withShards(t, 8, func() {
			got, err := TenantSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.Digest(); d != want {
				t.Errorf("seed %d, 8 shards: digest %#x != serial reference %#x", seed, d, want)
			}
		})
	}
}

// TestTenantSweepIsolation asserts the family's quick-scale isolation bar
// (Check: the noisy neighbor hurts the unprotected victims, dmclock holds
// them within 4x of the hog-free baseline, and its fairness beats the
// bypass) plus the shape behind it: both QoS schedulers throttle the hog
// and shield the victims, and the fleet cells are sane and fail no op
// (runFleet itself rejects a run that leaves an event pending once its
// monitor stops).
func TestTenantSweepIsolation(t *testing.T) {
	res, err := TenantSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(false); err != nil {
		t.Error(err)
	}
	noisy, ok := res.Cell(core.QoSNone, "noisy")
	if !ok {
		t.Fatal("no qos-none/noisy cell")
	}
	if noisy.HogOps == 0 {
		t.Error("noisy cell recorded no hog ops")
	}
	for _, qos := range []core.QoSKind{core.QoSTokenBucket, core.QoSDMClock} {
		c, ok := res.Cell(qos, "noisy")
		if !ok {
			t.Fatalf("no %v/noisy cell", qos)
		}
		if c.Stats.Dispatched == 0 {
			t.Errorf("%v/noisy: scheduler dispatched nothing — the elevator never ran", qos)
		}
		if c.Stats.Throttled == 0 {
			t.Errorf("%v/noisy: scheduler never throttled — the hog was never shaped", qos)
		}
		if c.VictimP99 >= noisy.VictimP99 {
			t.Errorf("%v/noisy victim p99 %v not below unprotected %v",
				qos, c.VictimP99, noisy.VictimP99)
		}
	}
	for _, c := range res.Fleet {
		if c.Active == 0 || c.TotalOps == 0 {
			t.Errorf("fleet cell %d tenants: degenerate (%d active, %d ops)",
				c.Tenants, c.Active, c.TotalOps)
		}
		if c.Failed != 0 {
			t.Errorf("fleet cell %d tenants: %d ops failed on a healthy cluster", c.Tenants, c.Failed)
		}
		if c.Fairness <= 0 || c.Fairness > 1 {
			t.Errorf("fleet cell %d tenants: fairness %.4f outside (0,1]", c.Tenants, c.Fairness)
		}
		if c.HotShare <= 0 {
			t.Errorf("fleet cell %d tenants: no hot tenant share", c.Tenants)
		}
	}
}
