package experiments

import (
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// SWBaselineResult reproduces Fig. 3 (replication) or Fig. 4 (EC): latency
// and throughput of 4 kB and 128 kB I/Os on the DeLiBA-K software baseline
// versus the DeLiBA-2 software baseline.
type SWBaselineResult struct {
	EC      bool
	Latency []Point // QD1 per workload/bs/stack
	Rate    []Point // throughput per workload/bs/stack
}

// swBaselineBlockSizes are the two sizes the figures show.
var swBaselineBlockSizes = []int{4096, 131072}

// SoftwareBaseline runs the Fig. 3 / Fig. 4 grid, fanning the cells out
// across the runner's workers. Each cell measures both the QD1 latency and
// the loaded-throughput run on its own fresh testbeds; results assemble in
// enumeration order, so the digest matches a serial run bit for bit.
func SoftwareBaseline(cfg Config, ec bool) (*SWBaselineResult, error) {
	cells := enumCells([]string{"deliba-2-sw", "deliba-k-sw"},
		StdWorkloads, swBaselineBlockSizes)
	type cellOut struct{ lat, rate Point }
	outs, err := RunCells(len(cells), func(i int) (cellOut, error) {
		c := cells[i]
		lp, err := runLatency(cfg, c.stack, ec, c.wl, c.bs)
		if err != nil {
			return cellOut{}, err
		}
		tp, err := runPoint(cfg, c.stack, ec, c.wl, c.bs, cfg.QueueDepth, cfg.Ops)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{lat: lp, rate: tp}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &SWBaselineResult{EC: ec}
	for _, o := range outs {
		res.Latency = append(res.Latency, o.lat)
		res.Rate = append(res.Rate, o.rate)
	}
	return res, nil
}

// LatencyOf returns the measured QD1 mean latency for a cell.
func (r *SWBaselineResult) LatencyOf(stack string, wl string, bs int) (sim.Duration, bool) {
	p, ok := findPoint(r.Latency, stack, wl, bs)
	return p.Mean, ok
}

// Fig3 runs the replication-mode software baseline.
func Fig3(cfg Config) (*SWBaselineResult, error) { return SoftwareBaseline(cfg, false) }

// Fig4 runs the erasure-coding-mode software baseline.
func Fig4(cfg Config) (*SWBaselineResult, error) { return SoftwareBaseline(cfg, true) }

// Tables renders the result like the paper's subfigures (a: latency,
// b: throughput).
func (r *SWBaselineResult) Tables() []*metrics.Table {
	mode := "Replication"
	fig := "Fig 3"
	if r.EC {
		mode = "Erasure Coding"
		fig = "Fig 4"
	}
	lat := metrics.NewTable(
		fmt.Sprintf("%sa — SW baseline (%s): mean latency [µs]", fig, mode),
		"workload", "bs", "D2-SW", "DK-SW", "improvement")
	rate := metrics.NewTable(
		fmt.Sprintf("%sb — SW baseline (%s): throughput [MB/s]", fig, mode),
		"workload", "bs", "D2-SW", "DK-SW", "speedup")
	for _, wl := range StdWorkloads {
		for _, bs := range swBaselineBlockSizes {
			l2, _ := findPoint(r.Latency, "deliba-2-sw", wl.Name, bs)
			lk, _ := findPoint(r.Latency, "deliba-k-sw", wl.Name, bs)
			lat.AddRow(wl.Name, bsLabel(bs), us(l2.Mean), us(lk.Mean),
				fmt.Sprintf("%.2fx", float64(l2.Mean)/float64(lk.Mean)))
			t2, _ := findPoint(r.Rate, "deliba-2-sw", wl.Name, bs)
			tk, _ := findPoint(r.Rate, "deliba-k-sw", wl.Name, bs)
			rate.AddRow(wl.Name, bsLabel(bs), t2.MBps, tk.MBps,
				fmt.Sprintf("%.2fx", tk.MBps/t2.MBps))
		}
	}
	return []*metrics.Table{lat, rate}
}

// hashPoints folds measured points into an FNV-1a digest in slice order.
func hashPoints(h hash.Hash64, points []Point) {
	for _, p := range points {
		fmt.Fprintf(h, "%s|%t|%s|%d|%.9g|%.9g|%d|%d\n",
			p.Stack, p.EC, p.Workload, p.BS, p.MBps, p.KIOPS,
			int64(p.Mean), int64(p.P99))
	}
}

// Digest returns an FNV-1a hash over every measured point, in run order.
// Two runs with the same Config must produce the same digest — the
// simulation is deterministic — so the self-test mode uses it to detect any
// nondeterminism introduced by hot-path optimisations, and the runner's
// property tests use it to prove parallel == serial.
func (r *SWBaselineResult) Digest() uint64 {
	h := fnv.New64a()
	hashPoints(h, r.Latency)
	hashPoints(h, r.Rate)
	return h.Sum64()
}

func bsLabel(bs int) string {
	if bs >= 1024 {
		return fmt.Sprintf("%dkB", bs/1024)
	}
	return fmt.Sprintf("%dB", bs)
}

// HWSweepResult backs Fig. 6/7 (replication) and Fig. 8/9 (EC): the
// block-size sweep of hardware-accelerated stacks.
type HWSweepResult struct {
	EC     bool
	Stacks []string // spec names
	Points []Point
}

// HWSweep runs the hardware sweep. Replication compares D1/D2/DK; EC
// compares D2/DK only (DeLiBA-1 had no erasure accelerators).
func HWSweep(cfg Config, ec bool) (*HWSweepResult, error) {
	stacks := []string{"deliba-1-hw", "deliba-2-hw", "deliba-k-hw"}
	if ec {
		stacks = []string{"deliba-2-hw", "deliba-k-hw"}
	}
	cells := enumCells(stacks, StdWorkloads, BlockSizes)
	points, err := RunCells(len(cells), func(i int) (Point, error) {
		c := cells[i]
		return runPoint(cfg, c.stack, ec, c.wl, c.bs, cfg.QueueDepth, cfg.Ops)
	})
	if err != nil {
		return nil, err
	}
	return &HWSweepResult{EC: ec, Stacks: stacks, Points: points}, nil
}

// Fig6and7 runs the replication hardware sweep (one sweep backs both the
// throughput and the KIOPS figure).
func Fig6and7(cfg Config) (*HWSweepResult, error) { return HWSweep(cfg, false) }

// Fig8and9 runs the EC hardware sweep.
func Fig8and9(cfg Config) (*HWSweepResult, error) { return HWSweep(cfg, true) }

// stackLabel maps stack names to the paper's D1/D2/D3 bar labels.
func stackLabel(stack string) string {
	switch stack {
	case "deliba-1-hw":
		return "D1"
	case "deliba-2-hw":
		return "D2"
	case "deliba-k-hw":
		return "D3(DeLiBA-K)"
	default:
		return stack
	}
}

// ThroughputTables renders the Fig. 6 / Fig. 8 view (MB/s per block size).
func (r *HWSweepResult) ThroughputTables() []*metrics.Table {
	return r.tables(true)
}

// IOPSTables renders the Fig. 7 / Fig. 9 view (KIOPS per block size).
func (r *HWSweepResult) IOPSTables() []*metrics.Table {
	return r.tables(false)
}

func (r *HWSweepResult) tables(throughput bool) []*metrics.Table {
	mode := "Replication"
	fig := "Fig 6"
	unit := "MB/s"
	if !throughput {
		fig = "Fig 7"
		unit = "KIOPS"
	}
	if r.EC {
		mode = "Erasure Coding"
		fig = "Fig 8"
		if !throughput {
			fig = "Fig 9"
		}
	}
	var out []*metrics.Table
	for _, wl := range StdWorkloads {
		headers := []string{"block size"}
		for _, stack := range r.Stacks {
			headers = append(headers, stackLabel(stack))
		}
		headers = append(headers, "DK speedup vs D2")
		t := metrics.NewTable(
			fmt.Sprintf("%s — HW %s %s [%s]", fig, mode, wl.Name, unit), headers...)
		for _, bs := range BlockSizes {
			row := []any{bsLabel(bs)}
			var d2, dk float64
			for _, stack := range r.Stacks {
				p, ok := findPoint(r.Points, stack, wl.Name, bs)
				v := 0.0
				if ok {
					if throughput {
						v = p.MBps
					} else {
						v = p.KIOPS
					}
				}
				if stack == "deliba-2-hw" {
					d2 = v
				}
				if stack == "deliba-k-hw" {
					dk = v
				}
				row = append(row, v)
			}
			sp := "-"
			if d2 > 0 {
				sp = fmt.Sprintf("%.2fx", dk/d2)
			}
			row = append(row, sp)
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// Digest returns an FNV-1a hash over the sweep's points in run order.
func (r *HWSweepResult) Digest() uint64 {
	h := fnv.New64a()
	hashPoints(h, r.Points)
	return h.Sum64()
}

// Speedup returns DK's gain over D2 for a workload and block size.
func (r *HWSweepResult) Speedup(wl string, bs int) (float64, error) {
	dk, ok1 := findPoint(r.Points, "deliba-k-hw", wl, bs)
	d2, ok2 := findPoint(r.Points, "deliba-2-hw", wl, bs)
	if !ok1 || !ok2 || d2.MBps == 0 {
		return 0, fmt.Errorf("experiments: missing sweep cells for %s/%d", wl, bs)
	}
	return dk.MBps / d2.MBps, nil
}
