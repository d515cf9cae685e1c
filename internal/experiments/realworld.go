package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// RealWorldResult compares execution time of a fixed task on DeLiBA-K
// versus DeLiBA-2 hardware, reproducing the paper's claim of ~30% execution
// time reduction for data-intensive tasks in the industrial lab.
type RealWorldResult struct {
	Name      string
	D2Elapsed sim.Duration
	DKElapsed sim.Duration
}

// Reduction returns the fractional execution-time reduction (0.30 = 30%).
func (r *RealWorldResult) Reduction() float64 {
	if r.D2Elapsed == 0 {
		return 0
	}
	return 1 - float64(r.DKElapsed)/float64(r.D2Elapsed)
}

// Table renders the comparison.
func (r *RealWorldResult) Table() *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("Real-world workload — %s", r.Name),
		"framework", "execution time", "reduction")
	t.AddRow("deliba-2-hw", r.D2Elapsed.String(), "-")
	t.AddRow("deliba-k-hw", r.DKElapsed.String(),
		fmt.Sprintf("%.0f%%", r.Reduction()*100))
	return t
}

// runTaskPair measures the same task on DeLiBA-2 and DeLiBA-K hardware as
// two runner cells.
func runTaskPair(cfg Config, name string, spec fio.JobSpec) (*RealWorldResult, error) {
	stacks := []string{"deliba-2-hw", "deliba-k-hw"}
	elapsed, err := RunCells(len(stacks), func(i int) (sim.Duration, error) {
		return runTask(cfg, stacks[i], spec)
	})
	if err != nil {
		return nil, err
	}
	return &RealWorldResult{Name: name, D2Elapsed: elapsed[0], DKElapsed: elapsed[1]}, nil
}

// Digest folds the measured execution times into an FNV-1a hash.
func (r *RealWorldResult) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d\n", r.Name, int64(r.D2Elapsed), int64(r.DKElapsed))
	return h.Sum64()
}

func runTask(cfg Config, name string, spec fio.JobSpec) (sim.Duration, error) {
	tb, err := core.NewTestbed(testbedConfig())
	if err != nil {
		return 0, err
	}
	stack, err := buildNamed(tb, name, false)
	if err != nil {
		return 0, err
	}
	res, err := fio.Run(tb.Eng, stack, spec)
	if err != nil {
		return 0, err
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("experiments: %s on %s: %d errors", spec.Name, name, res.Errors)
	}
	return res.Elapsed, nil
}

// OLAP models the industrial partner's analytical workload: full table
// scans and bulk loads — large sequential reads (the 512 kB block size the
// Linux community methodology emphasises) with per-batch query compute.
func OLAP(cfg Config) (*RealWorldResult, error) {
	spec := fio.JobSpec{
		Name:       "olap-scan",
		ReadPct:    90, // scans with some spill writes
		Pattern:    core.Seq,
		BlockSize:  512 * 1024,
		QueueDepth: 1, // scan → aggregate → next batch
		Jobs:       1, // one scan pipeline, as in the partner's suite
		Ops:        cfg.Ops / 2,
		ThinkTime:  1100 * sim.Microsecond, // aggregation compute per batch
		Seed:       cfg.Seed,
	}
	return runTaskPair(cfg, "OLAP (table scan / bulk load)", spec)
}

// OLTP models the transactional workload: small random reads and writes
// with transaction logic between I/Os.
func OLTP(cfg Config) (*RealWorldResult, error) {
	spec := fio.JobSpec{
		Name:       "oltp-txn",
		ReadPct:    70,
		Pattern:    core.Rand,
		BlockSize:  8192,
		QueueDepth: 1, // page in, transaction logic, commit
		Jobs:       1,
		Ops:        cfg.Ops,
		ThinkTime:  25 * sim.Microsecond,
		Seed:       cfg.Seed,
	}
	return runTaskPair(cfg, "OLTP (transaction mix)", spec)
}

// HeadlineResult checks the abstract's claims: up to 3.2x IOPS and 3.45x
// throughput for synthetic workloads relative to DeLiBA-2.
type HeadlineResult struct {
	BestIOPSGain       float64
	BestThroughputGain float64
	AtWorkload         string
	AtBS               int
}

// Headline scans a replication hardware sweep for the best DK-vs-D2 gains.
func Headline(sweep *HWSweepResult) *HeadlineResult {
	res := &HeadlineResult{}
	for _, wl := range StdWorkloads {
		for _, bs := range BlockSizes {
			dk, ok1 := findPoint(sweep.Points, "deliba-k-hw", wl.Name, bs)
			d2, ok2 := findPoint(sweep.Points, "deliba-2-hw", wl.Name, bs)
			if !ok1 || !ok2 || d2.MBps == 0 {
				continue
			}
			if g := dk.MBps / d2.MBps; g > res.BestThroughputGain {
				res.BestThroughputGain = g
				res.AtWorkload = wl.Name
				res.AtBS = bs
			}
			if g := dk.KIOPS / d2.KIOPS; g > res.BestIOPSGain {
				res.BestIOPSGain = g
			}
		}
	}
	return res
}

// Table renders the headline comparison.
func (h *HeadlineResult) Table() *metrics.Table {
	t := metrics.NewTable("Headline speed-ups vs DeLiBA-2 (abstract)",
		"metric", "model", "paper")
	t.AddRow("best IOPS gain", fmt.Sprintf("%.2fx", h.BestIOPSGain), "3.2x")
	t.AddRow("best throughput gain", fmt.Sprintf("%.2fx (%s %s)",
		h.BestThroughputGain, h.AtWorkload, bsLabel(h.AtBS)), "3.45x (rand-write 4kB)")
	return t
}
