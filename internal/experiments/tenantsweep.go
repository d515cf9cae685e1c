package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/blockmq"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the multi-tenant QoS evaluation: the same DeLiBA-K hardware
// stack serving a population of tenants, with the blk-mq scheduler swapped
// along the QoS axis (bypass / per-tenant token bucket / dmclock) and a
// noisy-neighbor scenario layered on top — one hog tenant hammering the
// shared card with deep large-block queues while the Zipf-skewed victim
// population runs its ordinary traffic. The measurement is isolation: how
// far the victims' tail latency degrades relative to the hog-free baseline,
// and how evenly per-tenant service rates are shared (Jain's index). A
// second grid scales the tenant population itself (10 → 10,000) on a
// 128-OSD rados.Cluster fleet, where per-tenant accounting has to stay
// cheap enough to keep one histogram per tenant.

// tenantScenarios is the noisy-neighbor axis: the hog-free baseline first,
// then the hog.
var tenantScenarios = []string{"isolated", "noisy"}

// tenantQoSAxis is the scheduler axis, bypass baseline first.
var tenantQoSAxis = []core.QoSKind{core.QoSNone, core.QoSTokenBucket, core.QoSDMClock}

// tenantCount sizes the victim population: ISSUE-scale (100 tenants) for
// full runs, a dozen for quick/test runs.
func tenantCount(cfg Config) int {
	if cfg.Ops >= Full().Ops {
		return 100
	}
	return 12
}

// tenantFleetSizes is the population axis of the fleet grid.
func tenantFleetSizes(cfg Config) []int {
	if cfg.Ops >= Full().Ops {
		return []int{10, 100, 1000, 10000}
	}
	return []int{10, 100}
}

// TenantCell is one measured (QoS scheduler, scenario) coordinate of the
// noisy-neighbor grid.
type TenantCell struct {
	QoS      core.QoSKind
	Scenario string
	// Tenants is the victim population size (the hog is one of them in the
	// noisy scenario); Ops the measured victim op count.
	Tenants int
	Ops     int
	// Victim* summarize the merged non-hog population's latency.
	VictimMean, VictimP50, VictimP99, VictimP999 sim.Duration
	// Hog* summarize the hog tenant (zero in the isolated scenario).
	HogOps          uint64
	HogMean, HogP99 sim.Duration
	// Fairness is Jain's index over per-tenant achieved service rates.
	Fairness float64
	// QoS is the scheduler's dispatch/throttle accounting (zero for
	// qos-none: the bypass never stages anything).
	Stats blockmq.QoSStats
}

// TenantFleetCell is one measured tenant population size on a fleet run
// (fleet.go).
type TenantFleetCell struct {
	Tenants int
	// Active is how many tenants actually received at least one op under
	// the Zipf draw.
	Active   int
	TotalOps uint64
	// Failed counts ops that completed with an error.
	Failed int
	KIOPS  float64
	Mean   sim.Duration
	P99    sim.Duration
	// HotShare is the hottest tenant's fraction of all ops (the Zipf head).
	HotShare float64
	Fairness float64
}

// TenantSweepResult is the QoS × scenario grid plus the fleet-scale axis.
type TenantSweepResult struct {
	Cells []TenantCell
	Fleet []TenantFleetCell
}

// tenantJob shapes the victim workload for one cell: random 70/30 r/w 4 KiB
// traffic across the tenant population, with the hog (noisy scenario only)
// blasting 64 KiB ops at deep queue depth from its own worker. 64 KiB keeps
// the noisy neighbor an IOPS+bandwidth hog the cost model can shape while
// one hog frame's 10 GbE serialization (~52 µs) stays small against the
// victim p99 — with 256 KiB frames the wire head-of-line wait alone is
// ~210 µs, which no dispatch-side scheduler can claw back.
func tenantJob(cfg Config, scenario string) fio.TenantJob {
	spec := fio.TenantJob{
		Job: fio.JobSpec{
			Name:       "tenants-" + scenario,
			ReadPct:    70,
			Pattern:    core.Rand,
			BlockSize:  4096,
			QueueDepth: 4,
			Jobs:       cfg.Jobs,
			Ops:        cfg.Ops,
			RampOps:    cfg.RampOps,
			Seed:       cfg.Seed,
		},
		Tenants:     tenantCount(cfg),
		TenantTheta: 0.5,
	}
	if scenario == "noisy" {
		spec.Hog = 1
		spec.HogDepth = 64
		spec.HogBlockSize = 64 << 10
	}
	return spec
}

// TenantSweep runs both grids through the parallel runner; cells are
// hermetic (fresh testbed and stack each), so worker count cannot perturb
// the digest.
func TenantSweep(cfg Config) (*TenantSweepResult, error) {
	type tsCell struct {
		qos      core.QoSKind
		scenario string
	}
	cells := make([]tsCell, 0, len(tenantQoSAxis)*len(tenantScenarios))
	for _, qos := range tenantQoSAxis {
		for _, sc := range tenantScenarios {
			cells = append(cells, tsCell{qos, sc})
		}
	}
	grid, err := RunCells(len(cells), func(i int) (TenantCell, error) {
		return runTenantCell(cfg, cells[i].qos, cells[i].scenario)
	})
	if err != nil {
		return nil, err
	}
	sizes := tenantFleetSizes(cfg)
	fleet, err := RunCells(len(sizes), func(i int) (TenantFleetCell, error) {
		return runTenantFleetCell(cfg, sizes[i])
	})
	if err != nil {
		return nil, err
	}
	return &TenantSweepResult{Cells: grid, Fleet: fleet}, nil
}

// runTenantCell measures one (QoS, scenario) cell on the classic testbed
// with the full DeLiBA-K hardware stack.
func runTenantCell(cfg Config, qos core.QoSKind, scenario string) (TenantCell, error) {
	tb, err := core.NewTestbed(testbedConfig())
	if err != nil {
		return TenantCell{}, err
	}
	spec, err := core.ParseStackSpec("deliba-k-hw")
	if err != nil {
		return TenantCell{}, err
	}
	spec.QoS = qos
	if qos != core.QoSNone {
		spec.Name += "+" + qos.String()
	}
	stack, err := tb.BuildStack(spec)
	if err != nil {
		return TenantCell{}, err
	}
	res, err := fio.RunTenants(tb.Eng, stack, tenantJob(cfg, scenario))
	if err != nil {
		return TenantCell{}, err
	}
	vh := res.VictimHist()
	cell := TenantCell{
		QoS:        qos,
		Scenario:   scenario,
		Tenants:    tenantCount(cfg),
		Ops:        int(res.Base.Lat.Count()),
		VictimMean: vh.Mean(),
		VictimP50:  vh.Percentile(50),
		VictimP99:  vh.Percentile(99),
		VictimP999: vh.Percentile(99.9),
		Fairness:   res.Fairness,
	}
	if hh := res.HogHist(); hh != nil {
		cell.HogOps = hh.Count()
		cell.HogMean = hh.Mean()
		cell.HogP99 = hh.Percentile(99)
	}
	if tb.QoSSched != nil {
		cell.Stats = tb.QoSSched.QoS()
	}
	return cell, nil
}

// runTenantFleetCell measures one tenant population size on a 128-OSD
// fleet run with the per-op tenant draw Zipf-skewed, so the head tenants
// dominate while the tail barely appears.
func runTenantFleetCell(cfg Config, tenants int) (TenantFleetCell, error) {
	spec := fleetScenario(cfg, 128)
	spec.tenants, spec.theta = tenants, 0.99
	res, err := runFleet(spec)
	if err != nil {
		return TenantFleetCell{}, err
	}
	cell := TenantFleetCell{
		Tenants:  tenants,
		Active:   res.tenants.Len(),
		TotalOps: res.ops,
		Failed:   res.failed,
		KIOPS:    res.kiops(),
		Mean:     res.lat.Mean(),
		P99:      res.lat.Percentile(99),
	}
	var hot uint64
	var rates []float64
	for _, id := range res.tenants.Tenants() {
		h := res.tenants.Hist(id)
		hot = max(hot, h.Count())
		if m := h.Mean(); m > 0 {
			rates = append(rates, 1/float64(m))
		}
	}
	if res.ops > 0 {
		cell.HotShare = float64(hot) / float64(res.ops)
	}
	cell.Fairness = metrics.Fairness(rates)
	return cell, nil
}

// Cell returns the (QoS, scenario) grid cell.
func (r *TenantSweepResult) Cell(qos core.QoSKind, scenario string) (TenantCell, bool) {
	for _, c := range r.Cells {
		if c.QoS == qos && c.Scenario == scenario {
			return c, true
		}
	}
	return TenantCell{}, false
}

// Check is the tenant family's isolation bar. Under the noisy neighbor,
// dmclock holds the victims' p99 within 2x of the hog-free qos-none
// baseline while the unscheduled bypass blows past 5x, and dmclock's
// contention-window fairness beats the bypass's. Quick runs keep the shape
// (the hog bites, QoS shields) but not the full-population ratios: within
// 4x and past 1x.
func (r *TenantSweepResult) Check(full bool) error {
	isolation, floor := 4.0, 1.0
	if full {
		isolation, floor = 2.0, 5.0
	}
	base, ok1 := r.Cell(core.QoSNone, "isolated")
	none, ok2 := r.Cell(core.QoSNone, "noisy")
	dmc, ok3 := r.Cell(core.QoSDMClock, "noisy")
	if !ok1 || !ok2 || !ok3 || base.VictimP99 <= 0 {
		return fmt.Errorf("tenant: missing qos-none isolated/noisy or qos-dmclock noisy cell")
	}
	blowNone := float64(none.VictimP99) / float64(base.VictimP99)
	blowDMC := float64(dmc.VictimP99) / float64(base.VictimP99)
	switch {
	case blowDMC > isolation:
		return fmt.Errorf("tenant: dmclock victim p99 blowup %.2fx above %.1fx", blowDMC, isolation)
	case blowNone <= floor:
		return fmt.Errorf("tenant: qos-none victim p99 blowup %.2fx not above %.1fx — the hog never bit", blowNone, floor)
	case dmc.Fairness <= none.Fairness:
		return fmt.Errorf("tenant: dmclock fairness %.4f not above qos-none %.4f", dmc.Fairness, none.Fairness)
	}
	return nil
}

// Digest folds both grids into an FNV-1a hash — the oracle for the
// serial-vs-parallel and serial-vs-sharded reproducibility properties.
func (r *TenantSweepResult) Digest() uint64 {
	h := fnv.New64a()
	for _, c := range r.Cells {
		fmt.Fprintf(h, "%v|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%.9g|%d|%d|%d|%d\n",
			c.QoS, c.Scenario, c.Tenants, c.Ops,
			int64(c.VictimMean), int64(c.VictimP50), int64(c.VictimP99), int64(c.VictimP999),
			c.HogOps, int64(c.HogMean), int64(c.HogP99), c.Fairness,
			c.Stats.Dispatched, c.Stats.Throttled, c.Stats.ResPhase, c.Stats.WeightPhase)
	}
	for _, c := range r.Fleet {
		fmt.Fprintf(h, "fleet|%d|%d|%d|%d|%.9g|%d|%d|%.9g|%.9g\n",
			c.Tenants, c.Active, c.TotalOps, c.Failed, c.KIOPS,
			int64(c.Mean), int64(c.P99), c.HotShare, c.Fairness)
	}
	return h.Sum64()
}

// Table renders the noisy-neighbor grid.
func (r *TenantSweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Multi-tenant QoS: victim tail latency and fairness vs scheduler under a noisy neighbor (rand 70/30 r/w, 4 kB victims, 64 kB hog)",
		"qos", "scenario", "tenants", "victim p50 us", "victim p99 us", "victim p999 us",
		"hog ops", "hog p99 us", "fairness", "throttled")
	for _, c := range r.Cells {
		t.AddRow(c.QoS.String(), c.Scenario, c.Tenants,
			us(c.VictimP50), us(c.VictimP99), us(c.VictimP999),
			c.HogOps, us(c.HogP99),
			fmt.Sprintf("%.4f", c.Fairness), c.Stats.Throttled)
	}
	return t
}

// FleetTable renders the population-scale grid.
func (r *TenantSweepResult) FleetTable() *metrics.Table {
	t := metrics.NewTable("Tenant fleet scale: per-tenant accounting on a 128-OSD rados.Cluster (Zipf 0.99 tenant draw)",
		"tenants", "active", "ops", "failed", "kiops", "mean us", "p99 us", "hot share", "fairness")
	for _, c := range r.Fleet {
		t.AddRow(c.Tenants, c.Active, c.TotalOps, c.Failed,
			fmt.Sprintf("%.1f", c.KIOPS), us(c.Mean), us(c.P99),
			fmt.Sprintf("%.4f", c.HotShare), fmt.Sprintf("%.4f", c.Fairness))
	}
	return t
}
