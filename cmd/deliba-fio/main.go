// Command deliba-fio runs a single fio-style workload against any stack
// composition on the simulated testbed and prints latency and throughput;
// -profile adds the latency breakdown of every span name.
//
// Usage:
//
//	deliba-fio -stack deliba-k-hw -rw randwrite -bs 4096 -qd 16 -jobs 3 -ops 2000
//	deliba-fio -stack deliba-k-hw+ec -profile
//	deliba-fio -stack iouring,dmq-bypass,qdma,hls-crush,card-rtl -profile
//
// -stack takes any core.ParseStackSpec string: one of the five paper stacks
// (deliba-1-hw, deliba-2-sw, deliba-2-hw, deliba-k-sw, deliba-k-hw), a name
// with '+'-joined options (ec, cache-lsvd, repl-raft, qos-dmclock, ...), or
// a layer-token list. Workloads (-rw): read, write, randread, randwrite, or
// rw:<readpct>. The command exits 1 when any op fails, after printing the
// summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/trace"
)

func main() {
	stackStr := flag.String("stack", "deliba-k-hw", "stack composition: a name, name+options, or layer tokens")
	rw := flag.String("rw", "randread", "read|write|randread|randwrite|rw:<readpct>")
	bs := flag.Int("bs", 4096, "block size in bytes")
	bssplit := flag.String("bssplit", "", "mixed sizes, e.g. 4096/70:65536/30 (size/weight)")
	qd := flag.Int("qd", 16, "queue depth per job")
	jobs := flag.Int("jobs", 3, "parallel jobs")
	ops := flag.Int("ops", 2000, "ops per job")
	ramp := flag.Int("ramp", 100, "warm-up ops per job (excluded from stats)")
	seed := flag.Uint64("seed", 1, "random seed")
	profile := flag.Bool("profile", false, "print the latency breakdown of every span name (traces every op)")
	flag.Parse()

	spec, err := core.ParseStackSpec(*stackStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deliba-fio:", err)
		os.Exit(2)
	}
	readPct, pattern, err := parseRW(*rw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deliba-fio:", err)
		os.Exit(2)
	}

	cfg := core.DefaultTestbedConfig()
	if spec.Replication == core.ReplRaft {
		// The raft router fails fast with ErrNoLeader while an election is
		// still resolving; the client retry layer is part of that protocol's
		// contract, so arm it.
		cfg.Resilience = core.DefaultResilienceConfig()
		cfg.Resilience.Seed = *seed
	}
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		fatal(err)
	}
	var tr *trace.Tracer
	if *profile {
		tr = trace.New(trace.Config{SampleEvery: 1})
		tb.EnableTracing(tr)
	}
	stack, err := tb.BuildStack(spec)
	if err != nil {
		fatal(err)
	}
	split, err := parseBssplit(*bssplit)
	if err != nil {
		fatal(err)
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       "cli",
		ReadPct:    readPct,
		Pattern:    pattern,
		BlockSize:  *bs,
		BlockSplit: split,
		QueueDepth: *qd,
		Jobs:       *jobs,
		Ops:        *ops,
		RampOps:    *ramp,
		Seed:       *seed,
	})
	if err != nil {
		fatal(err)
	}
	s := res.Lat.Summarize()
	fmt.Printf("stack %s: %v / %v / %v / %v / %v (ec=%v)\n", spec.Name,
		spec.HostAPI, spec.Block, spec.Transport, spec.Placement, spec.Fanout, spec.EC)
	fmt.Printf("%s completed\n", res.Spec)
	fmt.Printf("  iops      : %.0f (%.2f kIOPS)\n", res.IOPS(), res.KIOPS())
	fmt.Printf("  bandwidth : %.1f MB/s\n", res.MBps())
	fmt.Printf("  latency   : min=%v mean=%v p50=%v p95=%v p99=%v max=%v\n",
		s.Min, s.Mean, s.Median, s.P95, s.P99, s.Max)
	fmt.Printf("  runtime   : %v (virtual), errors=%d\n", res.Elapsed, res.Errors)
	if tr != nil {
		fmt.Println()
		fmt.Println(trace.StageTable(tr.Stages()))
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "deliba-fio: %d ops failed\n", res.Errors)
		os.Exit(1)
	}
}

// parseBssplit parses "size/weight:size/weight" lists.
func parseBssplit(s string) ([]fio.SizeWeight, error) {
	if s == "" {
		return nil, nil
	}
	var out []fio.SizeWeight
	for _, part := range strings.Split(s, ":") {
		var size, weight int
		if _, err := fmt.Sscanf(part, "%d/%d", &size, &weight); err != nil {
			return nil, fmt.Errorf("bad bssplit entry %q", part)
		}
		out = append(out, fio.SizeWeight{Size: size, Weight: weight})
	}
	return out, nil
}

func parseRW(rw string) (readPct int, pattern core.Pattern, err error) {
	switch rw {
	case "read":
		return 100, core.Seq, nil
	case "write":
		return 0, core.Seq, nil
	case "randread":
		return 100, core.Rand, nil
	case "randwrite":
		return 0, core.Rand, nil
	}
	if strings.HasPrefix(rw, "rw:") {
		pct, err := strconv.Atoi(strings.TrimPrefix(rw, "rw:"))
		if err != nil || pct < 0 || pct > 100 {
			return 0, 0, fmt.Errorf("bad mixed spec %q", rw)
		}
		return pct, core.Rand, nil
	}
	return 0, 0, fmt.Errorf("unknown -rw %q", rw)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deliba-fio:", err)
	os.Exit(1)
}
