package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fio"
	"repro/internal/metrics"
	"repro/internal/raft"
	"repro/internal/sim"
)

// This file is the replication head-to-head: the same DeLiBA-K stack over
// the same 3-node replicated pool, once with Ceph's primary-copy protocol
// and once with the per-PG multi-Raft backend, driven through the same
// fault scenarios. The measurement is availability — the fraction of wall
// time writes commit — plus the unavailability-window accounting
// (longest/total stalled-write windows) that puts a number on failover
// time. Primary-copy must wait for every up replica and stalls through the
// failure-detection grace window; a Raft group commits on a majority and
// elects around a dead leader within the election timeout, so the grid
// makes the protocols' availability gap directly comparable.
//
// The topology deliberately differs from the paper testbed: 3 nodes ×
// 4 OSDs with a size-3 pool places one replica of every PG on every node,
// so isolating one node degrades every PG at once — the worst case for
// primary-copy and the textbook case for majority quorums.

// RaftCell is one measured (replication protocol, fault scenario)
// coordinate.
type RaftCell struct {
	Repl     core.ReplKind
	Scenario string
	// Ops is the number of measured operations; Errors how many failed
	// after the client retry budget; OpAvail the completed fraction.
	Ops     int
	Errors  int
	OpAvail float64
	// TimeAvail is 1 − StallTotal/wall: the fraction of run wall time
	// during which writes were committing (the tentpole's availability
	// metric). Stalls/StallTotal/StallMax describe the unavailability
	// windows themselves; StallMax is the observed failover time — how
	// long the longest write outage lasted before the protocol recovered.
	TimeAvail  float64
	Stalls     uint64
	StallTotal sim.Duration
	StallMax   sim.Duration
	// Mean/P99/P999/MaxLat summarise completion latency of measured ops,
	// including the ones that eventually failed. MaxLat bounds every op:
	// the per-attempt deadline budget property asserts on it.
	Mean, P99, P999, MaxLat sim.Duration
	// Res is the client-side resilience accounting for the run.
	Res metrics.Resilience
	// Raft is the backend's own accounting (zero for repl-primary cells):
	// elections fought, redirects followed, snapshot installs.
	Raft raft.Stats
	// Faults is the injector's view of the scenario.
	Faults faults.Stats
}

// RaftSweepResult is the full replication × scenario grid.
type RaftSweepResult struct {
	Cells []RaftCell
}

// raftPlan arms one named fault scenario on a cell's injector. Offsets are
// fixed so every scenario lands mid-run; the rng (derived from cfg.Seed and
// the plan name) picks fault targets.
type raftPlan struct {
	name string
	arm  func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int)
}

// raftPlans is the scenario axis. osd-crash is the *silent* variant: the
// OSD black-holes requests for a 6 ms monitor grace window before the
// cluster marks it down — the window where primary-copy writes burn their
// whole retry budget against a dead replica while a Raft group has already
// elected around it. The partition isolates the last storage node, which
// on this topology degrades every PG at once.
var raftPlans = []raftPlan{
	{name: "healthy"},
	{name: "osd-crash", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.ScheduleCrashSilent(400*sim.Microsecond, rng.Intn(nOSD), 6*sim.Millisecond, 8*sim.Millisecond)
	}},
	{name: "partition", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.SchedulePartition(400*sim.Microsecond, nNode-1, 3*sim.Millisecond)
	}},
	{name: "slow-disk", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.ScheduleSlow(200*sim.Microsecond, rng.Intn(nOSD), 8, 2*sim.Millisecond)
	}},
	{name: "flappy-link", arm: func(in *faults.Injector, rng *sim.RNG, nOSD, nNode int) {
		in.ScheduleFlappyLink(300*sim.Microsecond, rng.Intn(nNode), 200*sim.Microsecond, 300*sim.Microsecond, 4)
	}},
}

// raftReplAxis is the protocol axis, baseline first.
var raftReplAxis = []core.ReplKind{core.ReplPrimary, core.ReplRaft}

// raftTestbedConfig reshapes the runner's testbed for the head-to-head:
// 3 nodes × 4 OSDs, size-3 pool, 32 PGs, and a retry budget (4 × 600 µs
// attempts plus backoff ≈ 3 ms) that fits inside the 6 ms detection grace —
// so a stalled primary-copy write fails within the outage instead of
// riding it out, which is exactly the availability loss being measured.
func raftTestbedConfig(cfg Config) core.TestbedConfig {
	tcfg := core.DefaultTestbedConfig()
	tcfg.Nodes = 3
	tcfg.OSDsPerNode = 4
	tcfg.ReplicaSize = 3
	tcfg.PGs = 32
	tcfg.Resilience = core.DefaultResilienceConfig()
	tcfg.Resilience.Deadline = 600 * sim.Microsecond
	tcfg.Resilience.MaxRetries = 3
	tcfg.Resilience.BackoffCap = 400 * sim.Microsecond
	tcfg.Resilience.Seed = cfg.Seed
	tcfg.Raft.Seed = cfg.Seed
	return tcfg
}

// RaftSweep runs the replication × scenario grid through the parallel
// runner; cells are hermetic (fresh testbed, stack, Raft system and
// injector each), so worker count cannot perturb the digest.
func RaftSweep(cfg Config) (*RaftSweepResult, error) {
	type rsCell struct {
		repl core.ReplKind
		plan raftPlan
	}
	cells := make([]rsCell, 0, len(raftReplAxis)*len(raftPlans))
	for _, repl := range raftReplAxis {
		for _, plan := range raftPlans {
			cells = append(cells, rsCell{repl, plan})
		}
	}
	out, err := RunCells(len(cells), func(i int) (RaftCell, error) {
		return runRaftCell(cfg, cells[i].repl, cells[i].plan)
	})
	if err != nil {
		return nil, err
	}
	return &RaftSweepResult{Cells: out}, nil
}

// runRaftCell measures one cell: the DeLiBA-K hardware stack with the
// cell's replication protocol, the armed injector, one write-heavy random
// workload. I/O errors fold into availability; stall windows are closed at
// the run edge so an outage the run never recovered from is still charged.
func runRaftCell(cfg Config, repl core.ReplKind, plan raftPlan) (RaftCell, error) {
	tb, err := core.NewTestbed(raftTestbedConfig(cfg))
	if err != nil {
		return RaftCell{}, err
	}
	spec, err := core.ParseStackSpec("deliba-k-hw")
	if err != nil {
		return RaftCell{}, err
	}
	spec.Replication = repl
	if repl == core.ReplRaft {
		spec.Name += "+repl-raft"
	}
	stack, err := tb.BuildStack(spec)
	if err != nil {
		return RaftCell{}, err
	}
	in := faults.NewInjector(tb.Eng, tb.Cluster, cfg.Seed)
	if plan.arm != nil {
		rng := sim.NewRNG(planSeed(cfg.Seed, plan.name))
		plan.arm(in, rng, len(tb.Cluster.OSDs), len(tb.Cluster.NodeHosts))
	}
	// QD is pinned (not cfg.QueueDepth): the availability measurement wants
	// per-attempt latency dominated by the replication protocol, not by
	// client-side queueing against the 600 µs deadline.
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       fmt.Sprintf("raft-%v-%s", repl, plan.name),
		ReadPct:    30,
		Pattern:    core.Rand,
		BlockSize:  4096,
		QueueDepth: 4,
		Jobs:       cfg.Jobs,
		Ops:        cfg.Ops,
		RampOps:    cfg.RampOps,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return RaftCell{}, err
	}
	tb.Res.Counters.CloseStalls(tb.Eng.Now())
	counters := tb.Res.Counters
	measured := int(res.Lat.Count())
	opAvail := 0.0
	if measured > 0 {
		opAvail = float64(measured-res.Errors) / float64(measured)
	}
	timeAvail := 1.0
	if res.Elapsed > 0 {
		timeAvail = 1 - float64(counters.StallTotal)/float64(res.Elapsed)
		if timeAvail < 0 {
			timeAvail = 0
		}
	}
	var rst raft.Stats
	if tb.RaftSys != nil {
		rst = tb.RaftSys.Stats()
	}
	return RaftCell{
		Repl:       repl,
		Scenario:   plan.name,
		Ops:        measured,
		Errors:     res.Errors,
		OpAvail:    opAvail,
		TimeAvail:  timeAvail,
		Stalls:     counters.WriteStalls,
		StallTotal: counters.StallTotal,
		StallMax:   counters.StallMax,
		Mean:       res.Lat.Mean(),
		P99:        res.Lat.Percentile(99),
		P999:       res.Lat.Percentile(99.9),
		MaxLat:     res.Lat.Max(),
		Res:        counters,
		Raft:       rst,
		Faults:     in.Stats(),
	}, nil
}

// Cell returns the (protocol, scenario) cell.
func (r *RaftSweepResult) Cell(repl core.ReplKind, scenario string) (RaftCell, bool) {
	for _, c := range r.Cells {
		if c.Repl == repl && c.Scenario == scenario {
			return c, true
		}
	}
	return RaftCell{}, false
}

// Check is the raft family's acceptance bar, the same at both scales: under
// the silent OSD crash and under the node partition, the Raft backend
// sustains strictly higher measured availability (the fraction of wall time
// writes commit) than primary-copy.
func (r *RaftSweepResult) Check(full bool) error {
	for _, scenario := range []string{"osd-crash", "partition"} {
		pc, ok1 := r.Cell(core.ReplPrimary, scenario)
		rc, ok2 := r.Cell(core.ReplRaft, scenario)
		if !ok1 || !ok2 {
			return fmt.Errorf("raft: no primary-copy/raft cell pair for %s", scenario)
		}
		if rc.TimeAvail <= pc.TimeAvail {
			return fmt.Errorf("raft: %s availability %.4f not strictly above primary-copy %.4f",
				scenario, rc.TimeAvail, pc.TimeAvail)
		}
	}
	return nil
}

// Digest folds the grid into an FNV-1a hash — the oracle for the
// serial-vs-parallel and cross-run reproducibility properties.
func (r *RaftSweepResult) Digest() uint64 {
	h := fnv.New64a()
	for _, c := range r.Cells {
		fmt.Fprintf(h, "%v|%s|%d|%d|%.9g|%.9g|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			c.Repl, c.Scenario, c.Ops, c.Errors, c.OpAvail, c.TimeAvail,
			c.Stalls, int64(c.StallTotal), int64(c.StallMax),
			int64(c.Mean), int64(c.P99), int64(c.P999), int64(c.MaxLat),
			c.Res.Retries, c.Res.Failovers, c.Res.DeadlineExceeded,
			c.Raft.Elections, c.Raft.LeaderWins, c.Raft.Redirects,
			c.Raft.NoLeaderErrs, c.Raft.Commits, c.Raft.SnapInstalls,
			c.Faults.Crashes, c.Faults.HookDrops)
	}
	return h.Sum64()
}

// Table renders availability, the unavailability windows and tail latency.
func (r *RaftSweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Replication head-to-head: primary-copy vs per-PG Raft under faults (rand 30/70 r/w, 4 kB, 3x3-node pool)",
		"repl", "scenario", "avail %", "op-avail %", "stalls", "maxstall us",
		"mean us", "p99 us", "p999 us", "elections", "redirects")
	for _, c := range r.Cells {
		t.AddRow(c.Repl.String(), c.Scenario,
			fmt.Sprintf("%.3f", c.TimeAvail*100),
			fmt.Sprintf("%.3f", c.OpAvail*100),
			c.Stalls, us(c.StallMax),
			us(c.Mean), us(c.P99), us(c.P999),
			c.Raft.Elections, c.Raft.Redirects)
	}
	return t
}
