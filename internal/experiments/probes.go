package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fio"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file backs the report's per-family observability section: for every
// family with a probe cell in the registry it runs that one representative
// cell traced at every op (and, for fault-bearing families, with the
// resilience layer enabled), and summarises each span name's latency
// histogram plus the client-side resilience counters. The probe is
// evidence, not a measurement family of its own — it has no digest and
// never feeds the golden gates.

// StageSummary is one span name's latency histogram, summarised.
type StageSummary struct {
	Stage  string  `json:"stage"`
	Ops    uint64  `json:"ops"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// FamilyProbeResult is one family's observability snapshot.
type FamilyProbeResult struct {
	Stages     []StageSummary     `json:"stages"`
	Resilience metrics.Resilience `json:"resilience"`
}

// familyProbe describes the representative cell a family is probed with.
type familyProbe struct {
	spec    string // core.ParseStackSpec composition
	readPct int
	fault   string // scenario name on the family's fault axis; "" = healthy
}

// FamilyProbe runs the named family's representative cell traced at every
// op and returns its per-span-name summaries and resilience counters.
// Families without a probe cell probe empty.
func FamilyProbe(cfg Config, name string) (FamilyProbeResult, error) {
	fam, err := LookupFamily(name)
	if err != nil || fam.probe == nil {
		return FamilyProbeResult{}, err
	}
	p := fam.probe
	sp, err := core.ParseStackSpec(p.spec)
	if err != nil {
		return FamilyProbeResult{}, err
	}
	raft := sp.Replication == core.ReplRaft
	tcfg := core.DefaultTestbedConfig()
	if raft {
		tcfg = raftTestbedConfig(cfg)
	} else if p.fault != "" {
		tcfg.Resilience = core.DefaultResilienceConfig()
		tcfg.Resilience.Seed = cfg.Seed
	}
	tb, err := core.NewTestbed(tcfg)
	if err != nil {
		return FamilyProbeResult{}, err
	}
	tr := trace.New(trace.Config{SampleEvery: 1})
	tb.EnableTracing(tr)
	stack, err := tb.BuildStack(sp)
	if err != nil {
		return FamilyProbeResult{}, err
	}
	arm := func(name string, arm func(*faults.Injector, *sim.RNG, int, int)) {
		in := faults.NewInjector(tb.Eng, tb.Cluster, cfg.Seed)
		rng := sim.NewRNG(planSeed(cfg.Seed, name))
		arm(in, rng, len(tb.Cluster.OSDs), len(tb.Cluster.NodeHosts))
	}
	if raft {
		// The raft family's own scenario axis, not the fault sweep's: its
		// partition is long enough (3 ms) to force elections.
		for _, plan := range raftPlans {
			if plan.name == p.fault && plan.arm != nil {
				arm(plan.name, plan.arm)
			}
		}
	} else if plan := planByName(p.fault); plan != nil && plan.arm != nil {
		arm(plan.name, plan.arm)
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       "probe-" + name,
		ReadPct:    p.readPct,
		Pattern:    core.Rand,
		BlockSize:  4096,
		QueueDepth: cfg.QueueDepth,
		Jobs:       cfg.Jobs,
		Ops:        cfg.Ops,
		RampOps:    cfg.RampOps,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return FamilyProbeResult{}, err
	}
	if p.fault == "" && res.Errors > 0 {
		return FamilyProbeResult{}, fmt.Errorf("experiments: probe %s: %d I/O errors", name, res.Errors)
	}
	if tb.Res != nil {
		// Close any write-stall window still open at run end so the probe's
		// stall accounting charges outages the run never recovered from.
		tb.Res.Counters.CloseStalls(tb.Eng.Now())
	}
	out := FamilyProbeResult{}
	for _, st := range tr.Stages() {
		h := st.Hist
		out.Stages = append(out.Stages, StageSummary{
			Stage:  st.Name,
			Ops:    h.Count(),
			MeanUs: float64(h.Mean()) / 1e3,
			P50Us:  float64(h.Median()) / 1e3,
			P99Us:  float64(h.Percentile(99)) / 1e3,
			P999Us: float64(h.Percentile(99.9)) / 1e3,
			MaxUs:  float64(h.Max()) / 1e3,
		})
	}
	if tb.Res != nil {
		out.Resilience = tb.Res.Counters
	}
	return out, nil
}
