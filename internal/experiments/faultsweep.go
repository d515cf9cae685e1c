package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fio"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the fault sweep: availability and tail latency of the
// software baseline vs. the DeLiBA-K stack under deterministic injected
// faults (OSD crash, degrading disk, packet loss, network partition), with
// the client resilience layer (deadlines + retries + failover + degraded
// EC reads) armed. Errors are part of the measurement here — a failed op
// lowers availability instead of failing the cell — so the sweep bypasses
// runPoint and drives fio directly.

// FaultCell is one measured (stack, fault scenario) coordinate.
type FaultCell struct {
	Stack    string // spec name
	Scenario string
	// EC marks cells run against the erasure-coded pool.
	EC bool
	// Ops is the number of measured operations; Errors how many of them
	// failed after the retry budget; Availability the completed fraction.
	Ops          int
	Errors       int
	Availability float64
	// Mean/P99/P999 summarise the completion latency of measured ops
	// (including the ones that eventually failed — a timed-out op's latency
	// is part of the tail story).
	Mean, P99, P999 sim.Duration
	// Res is the client-side resilience accounting for the run.
	Res metrics.Resilience
	// Faults is the injector's view: transitions fired and messages dropped.
	Faults faults.Stats
}

// FaultSweepResult is the full grid.
type FaultSweepResult struct {
	Cells []FaultCell
}

// faultPlan arms one named fault scenario on a cell's injector. Offsets are
// fixed fractions of the quick-config run so every scenario lands mid-run;
// the rng (derived from cfg.Seed and the plan name) picks fault targets.
type faultPlan struct {
	name string
	ec   bool
	arm  func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int)
}

// faultPlans is the scenario axis, mildest first. The crash scenarios kill
// one uniformly drawn OSD mid-run and restart it 2 ms later — with the
// default resilience policy every I/O must still complete (the acceptance
// bar for the fault layer).
var faultPlans = []faultPlan{
	{name: "healthy"},
	{name: "osd-crash", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.ScheduleCrash(200*sim.Microsecond, rng.Intn(nOSD), 2*sim.Millisecond)
	}},
	{name: "slow-disk", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.ScheduleSlow(100*sim.Microsecond, rng.Intn(nOSD), 8, 2*sim.Millisecond)
	}},
	{name: "loss-0.1%", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.SetLossRate(0.001)
	}},
	{name: "loss-1%", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.SetLossRate(0.01)
	}},
	{name: "partition", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.SchedulePartition(300*sim.Microsecond, nNode-1, 400*sim.Microsecond)
	}},
	{name: "osd-crash-ec", ec: true, arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.ScheduleCrash(200*sim.Microsecond, rng.Intn(nOSD), 2*sim.Millisecond)
	}},
}

// faultSweepStacks compares the software baseline against the full
// DeLiBA-K stack.
var faultSweepStacks = []string{"deliba-k-sw", "deliba-k-hw"}

// planSeed derives the per-scenario target-selection stream so adding a
// scenario never shifts another's draws.
func planSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ h.Sum64()
}

// FaultSweep runs the grid through the parallel runner; cells are hermetic
// (fresh testbed, stack and injector each) so worker count cannot perturb
// the digest.
func FaultSweep(cfg Config) (*FaultSweepResult, error) {
	type fsCell struct {
		stack string
		plan  faultPlan
	}
	cells := make([]fsCell, 0, len(faultSweepStacks)*len(faultPlans))
	for _, stack := range faultSweepStacks {
		for _, plan := range faultPlans {
			cells = append(cells, fsCell{stack, plan})
		}
	}
	out, err := RunCells(len(cells), func(i int) (FaultCell, error) {
		return runFaultCell(cfg, cells[i].stack, cells[i].plan)
	})
	if err != nil {
		return nil, err
	}
	return &FaultSweepResult{Cells: out}, nil
}

// runFaultCell measures one cell: resilient testbed, armed injector, one
// mixed random workload. I/O errors are folded into availability.
func runFaultCell(cfg Config, name string, plan faultPlan) (FaultCell, error) {
	tcfg := testbedConfig()
	tcfg.Resilience = core.DefaultResilienceConfig()
	tcfg.Resilience.Seed = cfg.Seed
	tb, err := core.NewTestbed(tcfg)
	if err != nil {
		return FaultCell{}, err
	}
	stack, err := buildNamed(tb, name, plan.ec)
	if err != nil {
		return FaultCell{}, err
	}
	in := faults.NewInjector(tb.Eng, tb.Cluster, cfg.Seed)
	if plan.arm != nil {
		rng := sim.NewRNG(planSeed(cfg.Seed, plan.name))
		plan.arm(in, rng, len(tb.Cluster.OSDs), len(tb.Cluster.NodeHosts))
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       fmt.Sprintf("faults-%s-%s", name, plan.name),
		ReadPct:    70,
		Pattern:    core.Rand,
		BlockSize:  4096,
		QueueDepth: cfg.QueueDepth,
		Jobs:       cfg.Jobs,
		Ops:        cfg.Ops,
		RampOps:    cfg.RampOps,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return FaultCell{}, err
	}
	measured := int(res.Lat.Count())
	avail := 0.0
	if measured > 0 {
		avail = float64(measured-res.Errors) / float64(measured)
	}
	return FaultCell{
		Stack:        name,
		Scenario:     plan.name,
		EC:           plan.ec,
		Ops:          measured,
		Errors:       res.Errors,
		Availability: avail,
		Mean:         res.Lat.Mean(),
		P99:          res.Lat.Percentile(99),
		P999:         res.Lat.Percentile(99.9),
		Res:          tb.Res.Counters,
		Faults:       in.Stats(),
	}, nil
}

// Digest folds the grid into an FNV-1a hash — the oracle for the
// serial-vs-parallel and cross-run reproducibility properties.
func (r *FaultSweepResult) Digest() uint64 {
	h := fnv.New64a()
	for _, c := range r.Cells {
		fmt.Fprintf(h, "%v|%s|%t|%d|%d|%.9g|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			c.Stack, c.Scenario, c.EC, c.Ops, c.Errors, c.Availability,
			int64(c.Mean), int64(c.P99), int64(c.P999),
			c.Res.Retries, c.Res.Failovers, c.Res.DegradedReads, c.Res.DeadlineExceeded,
			c.Faults.Crashes, c.Faults.Restarts, c.Faults.Slowdowns,
			c.Faults.Partitions, c.Faults.HookDrops)
	}
	return h.Sum64()
}

// Table renders availability, tail latency and the resilience counters.
func (r *FaultSweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Fault sweep: availability + tail latency under injected faults (rand 70/30 r/w, 4 kB)",
		"stack", "scenario", "avail %", "mean us", "p99 us", "p999 us",
		"retries", "failovers", "degraded", "deadlines", "drops")
	for _, c := range r.Cells {
		t.AddRow(c.Stack, c.Scenario,
			fmt.Sprintf("%.3f", c.Availability*100),
			us(c.Mean), us(c.P99), us(c.P999),
			c.Res.Retries, c.Res.Failovers, c.Res.DegradedReads,
			c.Res.DeadlineExceeded, c.Faults.HookDrops)
	}
	return t
}
