package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/crush"
	"repro/internal/metrics"
)

// BucketQualityRow characterises one bucket algorithm, quantifying the
// trade-offs that motivate the paper's three swappable replication RMs
// (uniform for homogeneous clusters, list for growing ones, tree for large
// ones) plus the static straw/straw2 kernels.
type BucketQualityRow struct {
	Alg crush.Alg
	// Spread is max/mean placements per device with equal weights (1.0 is
	// perfect balance).
	Spread float64
	// MoveOnLoss is the fraction of placements that change when one device
	// is marked out (ideal: reps/devices).
	MoveOnLoss float64
	// MoveOnAdd is the fraction that changes when a device is added
	// (list's strong suit; ideal: 1/(n+1) with reps=1 scaling).
	MoveOnAdd float64
	// SelectNs is the measured Go time per full rule evaluation.
	SelectNs int64
}

// bucketQualitySamples per measurement.
const bucketQualitySamples = 6000

// BucketQuality measures all five algorithms on a flat 16-device map with
// 2-way placement, one runner cell per algorithm. Every cell builds its own
// maps, so the placement statistics are deterministic under parallel
// execution. SelectNs is wall-clock (and excluded from the digest); it is
// timed by minTimePerOp after the cells finish, so no concurrent cell
// shares the CPU with the timing loop.
func BucketQuality() ([]BucketQualityRow, error) {
	algs := []crush.Alg{crush.UniformAlg, crush.ListAlg, crush.TreeAlg, crush.StrawAlg, crush.Straw2Alg}
	const devices = 16
	const reps = 2
	rows, err := RunCells(len(algs), func(cell int) (BucketQualityRow, error) {
		alg := algs[cell]
		m, root, err := crush.FlatCluster(devices, alg)
		if err != nil {
			return BucketQualityRow{}, err
		}
		rule := m.Rule("flat")

		// Spread.
		counts := make([]int, devices)
		for x := uint32(0); x < bucketQualitySamples; x++ {
			out, err := m.Select(rule, x, reps, nil)
			if err != nil {
				return BucketQualityRow{}, err
			}
			for _, o := range out {
				if o >= 0 && o < devices {
					counts[o]++
				}
			}
		}
		max, total := 0, 0
		for _, c := range counts {
			if c > max {
				max = c
			}
			total += c
		}
		mean := float64(total) / devices
		spread := float64(max) / mean

		// Movement on loss: mark device 3 out.
		rw := make([]uint32, devices)
		for i := range rw {
			rw[i] = crush.WeightOne
		}
		rw[3] = 0
		moved := 0
		for x := uint32(0); x < bucketQualitySamples; x++ {
			a, _ := m.Select(rule, x, reps, nil)
			b, _ := m.Select(rule, x, reps, rw)
			if !sameMembers(a, b) {
				moved++
			}
		}

		// Movement on add: same map with one more device.
		m2, root2, err := crush.FlatCluster(devices+1, alg)
		if err != nil {
			return BucketQualityRow{}, err
		}
		_ = root
		_ = root2
		rule2 := m2.Rule("flat")
		movedAdd := 0
		for x := uint32(0); x < bucketQualitySamples; x++ {
			a, _ := m.Select(rule, x, reps, nil)
			b, _ := m2.Select(rule2, x, reps, nil)
			if !sameMembers(a, b) {
				movedAdd++
			}
		}

		return BucketQualityRow{
			Alg:        alg,
			Spread:     spread,
			MoveOnLoss: float64(moved) / bucketQualitySamples,
			MoveOnAdd:  float64(movedAdd) / bucketQualitySamples,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	ops := make([]func(int) error, len(rows))
	for k, r := range rows {
		m, _, err := crush.FlatCluster(devices, r.Alg)
		if err != nil {
			return nil, err
		}
		rule := m.Rule("flat")
		ops[k] = func(i int) error {
			_, err := m.Select(rule, uint32(i), reps, nil)
			return err
		}
	}
	times, err := minTimePerOp(ops...)
	if err != nil {
		return nil, err
	}
	for k := range rows {
		rows[k].SelectNs = times[k].Nanoseconds()
	}
	return rows, nil
}

// BucketQualityDigest folds the placement statistics into an FNV-1a hash.
// SelectNs is wall-clock (it times the Go implementation on the host) and
// deliberately excluded: it differs between any two runs.
func BucketQualityDigest(rows []BucketQualityRow) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%s|%.9g|%.9g|%.9g\n", r.Alg, r.Spread, r.MoveOnLoss, r.MoveOnAdd)
	}
	return h.Sum64()
}

func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]int{}
	for _, v := range a {
		m[v]++
	}
	for _, v := range b {
		m[v]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return true
}

// BucketQualityTable renders the comparison with the ideal movement
// fractions alongside.
func BucketQualityTable(rows []BucketQualityRow) *metrics.Table {
	t := metrics.NewTable(
		"Bucket algorithm quality (16 devices, 2 replicas; motivates the DFX RM choice)",
		"alg", "spread (max/mean)", "move on loss", "ideal", "move on add", "ideal", "Go select")
	for _, r := range rows {
		t.AddRow(r.Alg.String(),
			fmt.Sprintf("%.3f", r.Spread),
			fmt.Sprintf("%.1f%%", r.MoveOnLoss*100),
			fmt.Sprintf("%.1f%%", 100*2.0/16),
			fmt.Sprintf("%.1f%%", r.MoveOnAdd*100),
			fmt.Sprintf("%.1f%%", 100*2.0/17),
			fmt.Sprintf("%dns", r.SelectNs))
	}
	return t
}
