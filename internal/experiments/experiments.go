// Package experiments regenerates every table and figure of the paper's
// evaluation: the software baselines (Fig. 3/4), the kernel profile
// (Table I), the hardware throughput/IOPS sweeps (Fig. 6-9), the end-to-end
// latency table (Table II), resource utilisation (Table III), the power
// measurements, the real-world OLAP/OLTP workloads, and the ablations of
// DESIGN.md. Each experiment builds fresh testbeds for isolation and
// returns both typed results (for assertions) and rendered tables (for
// cmd/delibabench).
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/sim"
)

// Config scales every experiment. Quick keeps unit tests fast; Full is the
// paper-scale run used by cmd/delibabench.
type Config struct {
	// Ops per job per fio run.
	Ops int
	// RampOps excluded from statistics.
	RampOps int
	// QueueDepth per job for throughput runs.
	QueueDepth int
	// Jobs parallel workers (the paper's 3 io_uring instances).
	Jobs int
	// LatOps for latency-mode (QD1) measurements.
	LatOps int
	// Seed for reproducibility.
	Seed uint64
}

// Quick returns a configuration small enough for unit tests.
func Quick() Config {
	return Config{Ops: 120, RampOps: 20, QueueDepth: 8, Jobs: 3, LatOps: 40, Seed: 1}
}

// Full returns the paper-scale configuration.
func Full() Config {
	return Config{Ops: 1500, RampOps: 150, QueueDepth: 16, Jobs: 3, LatOps: 300, Seed: 1}
}

// Workload is one fio pattern of the paper's grid.
type Workload struct {
	Name    string
	ReadPct int
	Pattern core.Pattern
}

// StdWorkloads is the seq/rand × read/write grid used throughout the
// evaluation.
var StdWorkloads = []Workload{
	{"seq-read", 100, core.Seq},
	{"seq-write", 0, core.Seq},
	{"rand-read", 100, core.Rand},
	{"rand-write", 0, core.Rand},
}

// BlockSizes is the sweep grid of Fig. 6-9, extended to the 512 kB point
// the paper's methodology section emphasises for on-disk databases.
var BlockSizes = []int{4096, 8192, 16384, 32768, 65536, 131072, 524288}

// Point is one measured cell of a sweep.
type Point struct {
	Stack    string // spec name (core.NamedSpecs)
	EC       bool
	Workload string
	BS       int
	MBps     float64
	KIOPS    float64
	Mean     sim.Duration
	P99      sim.Duration
}

// buildNamed builds a named stack on tb, on the erasure-coded pool when ec
// is set. The stack keeps the bare name, so job names, labels and digests
// read the same in both pools.
func buildNamed(tb *core.Testbed, name string, ec bool) (core.Stack, error) {
	spec, err := core.ParseStackSpec(name)
	if err != nil {
		return nil, err
	}
	spec.EC = ec
	return tb.BuildStack(spec)
}

// runPoint builds a fresh testbed+stack and runs one fio spec on it.
func runPoint(cfg Config, name string, ec bool, wl Workload, bs, qd, ops int) (Point, error) {
	tb, err := core.NewTestbed(testbedConfig())
	if err != nil {
		return Point{}, err
	}
	stack, err := buildNamed(tb, name, ec)
	if err != nil {
		return Point{}, err
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       fmt.Sprintf("%s-%s-%d", name, wl.Name, bs),
		ReadPct:    wl.ReadPct,
		Pattern:    wl.Pattern,
		BlockSize:  bs,
		QueueDepth: qd,
		Jobs:       cfg.Jobs,
		Ops:        ops,
		RampOps:    cfg.RampOps,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	if res.Errors > 0 {
		return Point{}, fmt.Errorf("experiments: %s %s bs=%d: %d I/O errors", name, wl.Name, bs, res.Errors)
	}
	return Point{
		Stack:    name,
		EC:       ec,
		Workload: wl.Name,
		BS:       bs,
		MBps:     res.MBps(),
		KIOPS:    res.KIOPS(),
		Mean:     res.Lat.Mean(),
		P99:      res.Lat.Percentile(99),
	}, nil
}

// runLatency measures QD1, single-job latency for one cell.
func runLatency(cfg Config, name string, ec bool, wl Workload, bs int) (Point, error) {
	tb, err := core.NewTestbed(testbedConfig())
	if err != nil {
		return Point{}, err
	}
	stack, err := buildNamed(tb, name, ec)
	if err != nil {
		return Point{}, err
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       fmt.Sprintf("lat-%s-%s-%d", name, wl.Name, bs),
		ReadPct:    wl.ReadPct,
		Pattern:    wl.Pattern,
		BlockSize:  bs,
		QueueDepth: 1,
		Jobs:       1,
		Ops:        cfg.LatOps,
		RampOps:    cfg.LatOps / 10,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	if res.Errors > 0 {
		return Point{}, fmt.Errorf("experiments: latency %s %s: %d errors", name, wl.Name, res.Errors)
	}
	return Point{
		Stack:    name,
		EC:       ec,
		Workload: wl.Name,
		BS:       bs,
		MBps:     res.MBps(),
		KIOPS:    res.KIOPS(),
		Mean:     res.Lat.Mean(),
		P99:      res.Lat.Percentile(99),
	}, nil
}

// findPoint locates a sweep cell.
func findPoint(points []Point, stack string, wl string, bs int) (Point, bool) {
	for _, p := range points {
		if p.Stack == stack && p.Workload == wl && p.BS == bs {
			return p, true
		}
	}
	return Point{}, false
}

// us formats a duration as microseconds for table cells.
func us(d sim.Duration) string { return fmt.Sprintf("%.1f", d.Microseconds()) }
