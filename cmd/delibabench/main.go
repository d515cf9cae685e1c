// Command delibabench regenerates every table and figure of the DeLiBA-K
// paper's evaluation from the simulation, printing them as plain-text
// tables. Select individual experiment families with -only, or run
// everything.
//
// Usage:
//
//	delibabench [-quick] [-parallel n] [-only fig3,fig6,tab2,...]
//	delibabench [-quick] [-only ...] -report report.json
//	delibabench -quick -trace trace.json [-tracesample 8]
//
// Families (-only ids), in print order: fig3 fig4 tab1 fig6 (Figs. 6 and 7
// plus the headline) fig8 (Figs. 8 and 9) tab2 tab3 power realworld
// ablations dfx buckets recovery mtu faults scale cache raft tenant trace.
//
// -parallel sets how many worker goroutines the experiment runner fans
// sweep cells out to (default: GOMAXPROCS). Results are bit-identical at
// any setting; only wall-clock changes.
//
// -report runs each selected family twice — serially and at -parallel
// workers — and writes one delibabench/report-v1 JSON file: the host (go
// version, CPUs, GOMAXPROCS, parallelism), and per family the two digests
// and wall-clocks, the golden pin (at -quick scale), the family's
// acceptance check, its tables, and its probe cell's stage latencies and
// resilience counters. It exits non-zero if any family's digests differ,
// miss their golden pin, or fail its check.
//
// -trace runs the per-I/O span-tracing sweep (healthy Fig. 3 cells sampled
// every -tracesample'th op, fault cells traced exhaustively) and writes one
// Chrome/Perfetto-loadable trace_event JSON file with per-cell tail
// exemplars and critical-path attribution. The file is byte-identical at
// any -parallel setting. Inspect it with `dfxtool trace`.
//
// To profile one stack composition, use `deliba-fio -stack <spec> -profile`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale experiments")
	only := flag.String("only", "", "comma-separated experiment family ids (default: all)")
	par := flag.Int("parallel", 0, "experiment runner workers (0 = GOMAXPROCS)")
	reportPath := flag.String("report", "", "write the determinism, check and table report to this JSON path")
	tracePath := flag.String("trace", "", "run the per-I/O trace sweep and write a Perfetto trace_event file to this path")
	traceSample := flag.Int("tracesample", experiments.DefaultTraceSample, "trace every Nth op on healthy cells (fault cells always trace every op)")
	flag.Parse()

	experiments.SetParallelism(*par)
	cfg := experiments.Full()
	if *quick {
		cfg = experiments.Quick()
	}
	if err := run(cfg, *only, *reportPath, *tracePath, *traceSample); err != nil {
		fmt.Fprintln(os.Stderr, "delibabench:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, only, reportPath, tracePath string, traceSample int) error {
	if tracePath != "" {
		return runTrace(tracePath, traceSample, cfg)
	}
	fams := experiments.Families()
	if only != "" {
		fams = nil
		for _, id := range strings.Split(only, ",") {
			fam, err := experiments.LookupFamily(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			fams = append(fams, fam)
		}
	}
	if reportPath != "" {
		return writeReport(reportPath, cfg, fams)
	}
	for _, fam := range fams {
		out, err := fam.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", fam.Name, err)
		}
		for _, t := range out.Tables {
			fmt.Println(t)
		}
	}
	return nil
}
