package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the city-scale sweep: aggregate throughput and failure
// recovery time as a function of cluster size, on the real replication
// path. Each cell is a fleet run (fleet.go) on one rados.Cluster: real OSD
// service, CRUSH placement, the monitor, client retries and the
// backfiller, at up to about 5,000 OSDs and 100k volumes.

// ScaleCell is one measured cluster size: a healthy throughput run and a
// failure/recovery run of the same topology and seed.
type ScaleCell struct {
	OSDs         int
	Nodes        int
	Clients      int
	Volumes      int
	OpsPerClient int

	// Healthy run. Failed counts ops that completed with an error.
	KIOPS     float64
	TotalOps  uint64
	Failed    int
	Mean, P99 sim.Duration
	Elapsed   sim.Duration

	// Failure run: one OSD crashes a third of the way into the healthy
	// run's virtual time. MovedPGs changed acting set at the mark-out;
	// BackfilledPGs hold every object on their whole new acting set when
	// the backfill ends, RecoveryTime after the crash. Retries counts the
	// client re-issues of ops the crash failed; FailFailed the ops that
	// still failed.
	MovedPGs      int
	BackfilledPGs int
	RecoveryTime  sim.Duration
	Retries       uint64
	FailKIOPS     float64
	FailFailed    int

	// Events is the engine event count of both runs. It is simulator
	// accounting, so the digest leaves it out.
	Events uint64
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

// ScaleSweep measures each cluster size; cells go through the parallel
// runner like every other family.
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
	spec := fleetScenario(cfg, osds)
	h, err := runFleet(spec)
	if err != nil {
		return ScaleCell{}, err
	}
	// The failure lands a third of the way into the healthy run, so it
	// always hits mid-load.
	spec.failAt = max(h.elapsed/3, sim.Microsecond)
	f, err := runFleet(spec)
	if err != nil {
		return ScaleCell{}, err
	}
	return ScaleCell{
		OSDs:          h.osds,
		Nodes:         h.nodes,
		Clients:       h.clients,
		Volumes:       h.volumes,
		OpsPerClient:  spec.opsPerClient,
		KIOPS:         h.kiops(),
		TotalOps:      h.ops,
		Failed:        h.failed,
		Mean:          h.lat.Mean(),
		P99:           h.lat.Percentile(99),
		Elapsed:       h.elapsed,
		MovedPGs:      f.movedPGs,
		BackfilledPGs: f.backfilledPGs,
		RecoveryTime:  f.recovery,
		Retries:       f.retries,
		FailKIOPS:     f.kiops(),
		FailFailed:    f.failed,
		Events:        h.events + f.events,
	}, nil
}

// Digest folds the sweep's simulated observables into an FNV-1a hash.
func (r *ScaleSweepResult) Digest() uint64 {
	h := fnv.New64a()
	for _, c := range r.Cells {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%.9g|%d|%d|%d|%d|%d|%d|%d|%d|%d|%.9g|%d\n",
			c.OSDs, c.Nodes, c.Clients, c.Volumes, c.OpsPerClient,
			c.KIOPS, c.TotalOps, c.Failed,
			int64(c.Mean), int64(c.P99), int64(c.Elapsed),
			c.MovedPGs, c.BackfilledPGs, int64(c.RecoveryTime),
			c.Retries, c.FailKIOPS, c.FailFailed)
	}
	return h.Sum64()
}

// Table renders throughput and recovery vs cluster size.
func (r *ScaleSweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Scale sweep: throughput + recovery vs cluster size (rados.Cluster, 4 clients per 16-OSD node, QD4 70/30 r/w 4 kB)",
		"osds", "nodes", "clients", "volumes", "ops/client", "kiops", "mean us", "p99 us", "failed",
		"moved pgs", "backfilled pgs", "recovery ms", "retries", "fail kiops", "fail failed", "events")
	for _, c := range r.Cells {
		t.AddRow(c.OSDs, c.Nodes, c.Clients, c.Volumes, c.OpsPerClient,
			fmt.Sprintf("%.1f", c.KIOPS), us(c.Mean), us(c.P99), c.Failed,
			c.MovedPGs, c.BackfilledPGs, fmt.Sprintf("%.3f", c.RecoveryTime.Microseconds()/1e3),
			c.Retries, fmt.Sprintf("%.1f", c.FailKIOPS), c.FailFailed, c.Events)
	}
	return t
}
