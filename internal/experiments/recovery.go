package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
)

// RecoveryResult captures a full failure-and-recovery cycle on a functional
// cluster: an OSD dies, the monitor ejects it, CRUSH remaps, and the
// backfiller restores redundancy — the cluster dynamics that motivate
// DeLiBA-K's run-time adaptability (§IV-C).
type RecoveryResult struct {
	ObjectsStored int
	FailedOSD     int
	// Planned is the CRUSH movement estimate; Moved/Bytes the actual
	// backfill work; Elapsed its virtual time.
	Planned    rados.RebalanceReport
	Moved      int
	Bytes      int64
	Elapsed    sim.Duration
	ScrubClean bool
}

// Recovery populates a replicated pool, fails the busiest OSD, backfills,
// and deep-scrubs the result. The single scenario is routed through the
// runner as one cell so every experiment family shares the same dispatch
// plumbing (and error semantics) regardless of parallelism.
func Recovery(cfg Config) (*RecoveryResult, error) {
	out, err := RunCells(1, func(int) (*RecoveryResult, error) {
		return recoveryCell(cfg)
	})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Digest folds the recovery cycle's outcome into an FNV-1a hash.
func (r *RecoveryResult) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%.9g|%d|%d|%d|%t\n",
		r.ObjectsStored, r.FailedOSD,
		r.Planned.MovedPGs, r.Planned.TotalPGs, r.Planned.MovedFrac,
		r.Moved, r.Bytes, int64(r.Elapsed), r.ScrubClean)
	return h.Sum64()
}

func recoveryCell(cfg Config) (*RecoveryResult, error) {
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, 2*sim.Microsecond)
	ccfg := rados.DefaultClusterConfig() // MemStore: functional
	cluster, err := rados.NewCluster(eng, fabric, ccfg)
	if err != nil {
		return nil, err
	}
	mon := rados.NewMonitor(cluster)
	client, err := rados.NewClient(cluster, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		return nil, err
	}
	pool, err := cluster.CreateReplicatedPool("p", 2, 64)
	if err != nil {
		return nil, err
	}

	res := &RecoveryResult{ObjectsStored: cfg.Ops / 2}
	for i := 0; i < res.ObjectsStored; i++ {
		name := fmt.Sprintf("obj%04d", i)
		eng.Wait(func(wake func()) {
			client.WriteAsync(pool, name, 0, make([]byte, 32*1024), rados.ReqOpts{}, func(e error) {
				err = e
				wake()
			})
		})
		if err != nil {
			return nil, err
		}
	}
	// Fail the OSD holding the most objects.
	best, bestN := -1, -1
	for id, o := range cluster.OSDs {
		if n := o.Store.Objects(); n > bestN {
			best, bestN = id, n
		}
	}
	res.FailedOSD = best
	before := mon.Reweights()
	cluster.OSDs[best].SetUp(false)
	mon.MarkOut(best)
	after := mon.Reweights()

	if res.Planned, err = cluster.PlanRebalance(pool, before, after); err != nil {
		return nil, err
	}
	var rep rados.BackfillReport
	eng.Wait(func(wake func()) {
		rados.NewBackfiller(cluster).BackfillPool(pool, before, after, func(r rados.BackfillReport, e error) {
			rep, err = r, e
			wake()
		})
	})
	if err != nil {
		return nil, err
	}
	res.Moved = rep.ObjectsMoved
	res.Bytes = rep.BytesMoved
	res.Elapsed = rep.Elapsed

	var scrub rados.ScrubReport
	eng.Wait(func(wake func()) {
		rados.NewScrubber(cluster).ScrubPool(pool, func(r rados.ScrubReport, e error) {
			scrub, err = r, e
			wake()
		})
	})
	if err != nil {
		return nil, err
	}
	res.ScrubClean = scrub.Clean()
	return res, nil
}

// Table renders the recovery cycle.
func (r *RecoveryResult) Table() *metrics.Table {
	t := metrics.NewTable("Failure recovery cycle (functional cluster)",
		"step", "result")
	t.AddRow("objects stored (2x replicated)", r.ObjectsStored)
	t.AddRow("failed device", fmt.Sprintf("osd.%d", r.FailedOSD))
	t.AddRow("CRUSH plan: PGs remapped", fmt.Sprintf("%d/%d (%.1f%%)",
		r.Planned.MovedPGs, r.Planned.TotalPGs, r.Planned.MovedFrac*100))
	t.AddRow("backfill: objects moved", r.Moved)
	t.AddRow("backfill: bytes moved", r.Bytes)
	t.AddRow("backfill time (virtual)", r.Elapsed.String())
	t.AddRow("post-recovery deep scrub", map[bool]string{true: "clean", false: "INCONSISTENT"}[r.ScrubClean])
	return t
}
