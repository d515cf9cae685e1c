package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/trace"
)

// stackJob is the short mixed workload -stack runs: enough random 4 kB
// operations to populate every span name's histogram without taking
// paper-scale time.
func stackJob(spec core.StackSpec) fio.JobSpec {
	return fio.JobSpec{
		Name:       spec.Name,
		ReadPct:    50,
		Pattern:    core.Rand,
		BlockSize:  4096,
		QueueDepth: 8,
		Jobs:       2,
		Ops:        400,
		RampOps:    40,
		Seed:       1,
	}
}

// profileStack builds the spec'd stack on a fresh testbed traced at every
// op, runs the short workload, and returns the fio result plus the
// per-span-name stages.
func profileStack(spec core.StackSpec) (*fio.Result, []trace.Stage, error) {
	cfg := core.DefaultTestbedConfig()
	cfg.Jitter = false
	if spec.Replication == core.ReplRaft {
		// The raft router fails fast with ErrNoLeader while an election is
		// still resolving; the client retry layer is part of that protocol's
		// contract, so arm it for the profile.
		cfg.Resilience = core.DefaultResilienceConfig()
		cfg.Resilience.Seed = stackJob(spec).Seed
	}
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		return nil, nil, err
	}
	tr := trace.New(trace.Config{SampleEvery: 1})
	tb.EnableTracing(tr)
	stack, err := tb.BuildStack(spec)
	if err != nil {
		return nil, nil, err
	}
	res, err := fio.Run(tb.Eng, stack, stackJob(spec))
	if err != nil {
		return nil, nil, err
	}
	return res, tr.Stages(), nil
}

// runStack is the -stack mode: assemble one composition from its spec
// string, drive the short workload through it, and print the throughput
// summary plus the latency breakdown of every span name the run emitted.
func runStack(specStr string) error {
	spec, err := core.ParseStackSpec(specStr)
	if err != nil {
		return err
	}
	fmt.Printf("stack %s: %v / %v / %v / %v / %v (ec=%v)\n", spec.Name,
		spec.HostAPI, spec.Block, spec.Transport, spec.Placement, spec.Fanout, spec.EC)
	res, stages, err := profileStack(spec)
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Println(trace.StageTable(stages))
	return nil
}
