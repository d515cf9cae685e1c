package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/metrics"
	"repro/internal/rados"
	"repro/internal/sim"
)

// This file is the city-scale sweep: aggregate throughput and failure
// recovery time as a function of cluster size, on the sharded engine. Unlike
// the classic families (which model the paper's two-node testbed in full
// fidelity), these cells use the rack-granular rados.ScaleCluster model so a
// 5,000-OSD, 100k-volume deployment is tractable — and, with Shards() > 1,
// parallel across cores while staying bit-identical to the serial run.

// ScaleCell is one measured cluster size: a healthy throughput run and a
// failure/recovery run of the same topology and seed.
type ScaleCell struct {
	OSDs    int
	Racks   int
	Clients int
	Volumes int
	Shards  int

	// Healthy run.
	KIOPS     float64
	TotalOps  uint64
	Mean, P99 sim.Duration
	Elapsed   sim.Duration

	// Failure run: one OSD dropped mid-run.
	DegradedPGs  int
	RecoveredPGs int
	RecoveryTime sim.Duration
	Redirects    uint64
	FailKIOPS    float64

	// Engine accounting (healthy run): barrier windows executed, cross-shard
	// messages merged, per-shard utilization.
	Windows  uint64
	Messages uint64
	PerShard []sim.ShardStats
}

// ScaleSweepResult is the size axis.
type ScaleSweepResult struct {
	Cells []ScaleCell
}

// scaleSizes returns the cluster-size axis: the paper-style city-scale
// progression for full runs, a small trio for quick/test runs.
func scaleSizes(cfg Config) []int {
	if cfg.Ops >= Full().Ops {
		return []int{128, 1024, 5000}
	}
	return []int{64, 128, 256}
}

// ScaleScenario builds the deployment for one cluster size: topology from
// DefaultScaleConfig, volume count scaled to ~20 volumes per OSD (the full
// configuration reaches 100k volumes at 5,000 OSDs), workload length from
// cfg.Ops, shard count from the runner setting.
func ScaleScenario(cfg Config, osds int) rados.ScaleConfig {
	sc := rados.DefaultScaleConfig(osds)
	sc.Seed = cfg.Seed
	sc.Shards = Shards()
	sc.Volumes = 20 * sc.Racks * sc.OSDsPerRack
	sc.OpsPerClient = cfg.Ops
	sc.QueueDepth = cfg.QueueDepth
	if sc.QueueDepth > 4 {
		sc.QueueDepth = 4
	}
	return sc
}

// ScaleSweep measures each cluster size. Cells go through the parallel
// runner like every other family; each cell additionally parallelizes
// internally when the runner's shard count is > 1, so -shards matters even
// for a single huge cell.
func ScaleSweep(cfg Config) (*ScaleSweepResult, error) {
	sizes := scaleSizes(cfg)
	out, err := RunCells(len(sizes), func(i int) (ScaleCell, error) {
		return runScaleCell(cfg, sizes[i])
	})
	if err != nil {
		return nil, err
	}
	return &ScaleSweepResult{Cells: out}, nil
}

// runScaleCell runs the healthy and failure scenarios for one size.
func runScaleCell(cfg Config, osds int) (ScaleCell, error) {
	sc := ScaleScenario(cfg, osds)
	healthy, err := rados.NewScaleCluster(sc)
	if err != nil {
		return ScaleCell{}, err
	}
	hres := healthy.Run()

	fsc := sc
	// Fail an OSD drawn from the scenario seed, a third of the way into the
	// healthy run's virtual duration, so the failure always lands mid-load.
	fsc.FailOSD = int(sim.NewRNG(sc.Seed ^ 0xfa11).Intn(osds))
	fsc.FailAfter = sim.Duration(hres.Elapsed) / 3
	if fsc.FailAfter <= 0 {
		fsc.FailAfter = sim.Millisecond
	}
	failed, err := rados.NewScaleCluster(fsc)
	if err != nil {
		return ScaleCell{}, err
	}
	fres := failed.Run()

	return ScaleCell{
		OSDs:         hres.OSDs,
		Racks:        hres.Racks,
		Clients:      hres.Clients,
		Volumes:      hres.Volumes,
		Shards:       hres.Shards,
		KIOPS:        hres.KIOPS,
		TotalOps:     hres.TotalOps,
		Mean:         hres.Lat.Mean(),
		P99:          hres.Lat.Percentile(99),
		Elapsed:      hres.Elapsed,
		DegradedPGs:  fres.DegradedPGs,
		RecoveredPGs: fres.RecoveredPGs,
		RecoveryTime: fres.RecoveryTime,
		Redirects:    fres.Redirects,
		FailKIOPS:    fres.KIOPS,
		Windows:      hres.Windows,
		Messages:     hres.Messages,
		PerShard:     hres.PerShard,
	}, nil
}

// Digest folds the sweep into an FNV-1a hash. Engine accounting (windows,
// messages, per-shard stats) is deliberately excluded: it varies with shard
// count by construction, while the simulated observables must not.
func (r *ScaleSweepResult) Digest() uint64 {
	h := fnv.New64a()
	for _, c := range r.Cells {
		fmt.Fprintf(h, "%d|%d|%d|%d|%.9g|%d|%d|%d|%d|%d|%d|%d|%d|%.9g\n",
			c.OSDs, c.Racks, c.Clients, c.Volumes, c.KIOPS, c.TotalOps,
			int64(c.Mean), int64(c.P99), int64(c.Elapsed),
			c.DegradedPGs, c.RecoveredPGs, int64(c.RecoveryTime),
			c.Redirects, c.FailKIOPS)
	}
	return h.Sum64()
}

// Table renders throughput and recovery vs cluster size.
func (r *ScaleSweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Scale sweep: throughput + recovery vs cluster size (rack-granular model, sharded engine)",
		"osds", "racks", "clients", "volumes", "kiops", "mean us", "p99 us",
		"degraded pgs", "recovery ms", "fail kiops", "shards", "windows", "xshard msgs")
	for _, c := range r.Cells {
		t.AddRow(c.OSDs, c.Racks, c.Clients, c.Volumes,
			fmt.Sprintf("%.1f", c.KIOPS), us(c.Mean), us(c.P99),
			c.DegradedPGs, fmt.Sprintf("%.3f", c.RecoveryTime.Microseconds()/1e3),
			fmt.Sprintf("%.1f", c.FailKIOPS), c.Shards, c.Windows, c.Messages)
	}
	return t
}
