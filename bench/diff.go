package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// topLayerMoves is how many per-layer metrics -diff lists per workload.
const topLayerMoves = 8

// runs maps workload → metric → one value per recorded run, in file order.
type runs map[string]map[string][]float64

func readRecords(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec recordLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for k, v := range rec.Metrics {
			out[rec.Workload][k] = append(out[rec.Workload][k], v)
		}
	}
	return out, sc.Err()
}

// verdict classifies one end-to-end metric of one workload. worse is the
// signed relative change of the median (positive = worse in the metric's
// direction).
//
//   - better: every new run beats every base run, or the median improved by
//     more than both sides' quartile spread and the new run won at least
//     nine tenths of the pairs (runs paired in file order, ties neutral);
//   - unresolved: the quartile spread of either side exceeds the bound;
//   - worse: the median worsened by more than the bound;
//   - same: otherwise.
func verdict(m metricSpec, base, next []float64) (worse float64, v string) {
	bq1, bm, bq3 := quartiles(base)
	nq1, nm, nq3 := quartiles(next)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	rel := func(d, ref float64) float64 {
		if ref == 0 {
			return math.Abs(d)
		}
		return d / math.Abs(ref)
	}
	worse = sign * rel(nm-bm, bm)
	spread := math.Max(rel(bq3-bq1, bm), rel(nq3-nq1, nm))
	allBetter := true
	for _, b := range base {
		for _, n := range next {
			allBetter = allBetter && sign*(n-b) < 0
		}
	}
	wins, pairs := 0, min(len(base), len(next))
	for i := 0; i < pairs; i++ {
		if sign*(next[i]-base[i]) < 0 {
			wins++
		}
	}
	switch {
	case allBetter:
		return worse, "better"
	case spread > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "worse"
	case -worse > spread && float64(wins) >= 0.9*float64(pairs):
		return worse, "better"
	}
	return worse, "same"
}

// runDiff prints, per workload, each end-to-end metric's medians,
// quartiles, change and verdict against its bound, then the per-layer
// metrics whose medians moved most.
func runDiff(w io.Writer, specPath, basePath, newPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for n := range base {
		if next[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		b, n := base[wl], next[wl]
		fmt.Fprintf(w, "## %s\n%-22s %34s %34s %9s %6s  %s\n", wl, "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			if len(b[m.Name]) == 0 || len(n[m.Name]) == 0 {
				continue
			}
			worse, v := verdict(m, b[m.Name], n[m.Name])
			fmt.Fprintf(w, "%-22s %34s %34s %+8.2f%% %5.1f%%  %s\n", m.Name,
				fmtQuartiles(b[m.Name]), fmtQuartiles(n[m.Name]), 100*worse, 100*m.Bound, v)
		}
		type move struct {
			name     string
			from, to float64
			size     float64
		}
		var moves []move
		for _, m := range spec.PerLayer {
			if len(b[m.Name]) == 0 || len(n[m.Name]) == 0 {
				continue
			}
			bq1, from, bq3 := quartiles(b[m.Name])
			nq1, to, nq3 := quartiles(n[m.Name])
			// A move within either side's own run-to-run spread is noise.
			if math.Abs(to-from) <= math.Max(bq3-bq1, nq3-nq1) {
				continue
			}
			moves = append(moves, move{m.Name, from, to, math.Abs(to-from) / math.Max(math.Abs(from), math.Abs(to))})
		}
		sort.SliceStable(moves, func(i, j int) bool { return moves[i].size > moves[j].size })
		if len(moves) > 0 {
			fmt.Fprintf(w, "per-layer metrics that moved most, beyond their quartile spread:\n")
		}
		for _, mv := range moves[:min(topLayerMoves, len(moves))] {
			fmt.Fprintf(w, "  %-34s %14.4f -> %14.4f\n", mv.name, mv.from, mv.to)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fmtQuartiles(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}
