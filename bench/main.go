// Command bench is the repository benchmark: it drives fixed workloads
// through the public core API and reports end-to-end metrics (simulated
// latency and throughput, simulator wall-clock, allocations, memory, set-up
// time) and per-layer metrics (simulated time per layer from span critical
// paths, layer counters, and wall-clock share per package from a CPU
// profile). See README.md for the metrics, workloads and comparison
// protocol.
//
// Every round runs in a fresh child process of this binary, so memory,
// garbage-collector state and leaked goroutines never carry over.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one child process; the longest round takes well
// under a minute on a 2-core host.
const childTimeout = 150 * time.Second

func main() {
	workloadName := flag.String("workload", "", "workload to run; empty runs every workload for one timed and one traced round")
	seed := flag.Uint64("seed", 1, "seed of the generated op streams")
	seconds := flag.Float64("seconds", 0, "keep starting rounds until this many wall seconds have passed (at least one round)")
	traceFlag := flag.Int("trace", 0, "0: report end-to-end metrics from timed rounds; 1: report per-layer metrics from a timed round and traced rounds")
	record := flag.String("record", "", "append this run's metrics and host to `file` as one JSON line, for -diff")
	diff := flag.Bool("diff", false, "compare two record files: -diff base.jsonl new.jsonl")
	child := flag.String("child", "", "run one round in this process and print it as JSON (timed or traced); used by the parent process")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatalf("usage: bench -diff base.jsonl new.jsonl")
		}
		if err := runDiff(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *child != "" {
		if *child != "timed" && *child != "traced" {
			fatalf("-child must be timed or traced")
		}
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatalf("%v", err)
		}
		res, err := runRound(w, *seed, *child == "traced")
		if err != nil {
			fatalf("%s round: %v", w.Name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	host := hostInfo()
	warnIfOtherHost(host, "bench/baseline.json")

	ws := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatalf("%v", err)
		}
		ws = []workload{w}
	}
	traced := *traceFlag == 1 || *workloadName == ""
	budget := time.Duration(*seconds * float64(time.Second))

	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		s, err := measure(w, *seed, budget, traced)
		if err != nil {
			fatalf("%s: %v", w.Name, err)
		}
		var want []metricSpec
		switch {
		case *workloadName == "":
			want = append(slices.Clone(spec.EndToEnd), spec.PerLayer...)
		case *traceFlag == 1:
			want = spec.PerLayer
		default:
			want = spec.EndToEnd
		}
		printReport(os.Stdout, w, *seed, host, s, want)
		problems := s.problems
		for _, m := range want {
			v, ok := s.metrics[m.Name]
			if !ok {
				problems = append(problems, fmt.Sprintf("metric %s not measured", m.Name))
				continue
			}
			key := m.Name
			if *workloadName == "" {
				key = w.Name + "/" + m.Name
			}
			out.Metrics[key] = metricValue{Value: v, Unit: m.Unit}
		}
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED CHECK: %s\n", w.Name, p)
		}
		out.Correct = out.Correct && len(problems) == 0
		out.Attempted += s.attempted
		out.Failed += s.failed
		if *record != "" {
			rec := recordLine{Workload: w.Name, Seed: *seed, Trace: *traceFlag, Rounds: s.rounds, Digest: s.digest, Host: host, Metrics: s.metrics}
			if err := appendRecord(*record, rec); err != nil {
				fatalf("%v", err)
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is one workload's measurement over all its rounds.
type summary struct {
	rounds, tracedRounds int
	attempted, failed    int
	digest               string // the rounds' common completion digest
	metrics              map[string]float64
	problems             []string
}

// measure runs timed rounds of w until budget has passed (at least one);
// when traced it instead runs one timed round and then traced rounds until
// budget has passed (at least one). Each round is a child process.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*summary, error) {
	start := time.Now()
	var timed, tr []*roundResult
	var rss []float64
	for len(timed) == 0 || (!traced && time.Since(start) < budget) {
		r, mib, err := runChild(w, seed, "timed")
		if err != nil {
			return nil, err
		}
		timed = append(timed, r)
		rss = append(rss, mib)
	}
	for traced && (len(tr) == 0 || time.Since(start) < budget) {
		r, _, err := runChild(w, seed, "traced")
		if err != nil {
			return nil, err
		}
		tr = append(tr, r)
	}

	digest := timed[0].Digest
	s := &summary{rounds: len(timed), tracedRounds: len(tr), digest: digest, metrics: map[string]float64{}}
	for _, r := range append(slices.Clone(timed), tr...) {
		s.attempted += r.Attempted
		s.failed += r.Failed
		s.problems = append(s.problems, r.Problems...)
		if r.Digest != digest {
			s.problems = append(s.problems, fmt.Sprintf("completion digest %s differs from the first round's %s", r.Digest, digest))
		}
	}
	// Simulated metrics and counters repeat exactly for a seed (the digests
	// agree), so they come from the first round; wall-clock metrics pool
	// all rounds.
	for k, v := range timed[0].Metrics {
		s.metrics[k] = v
	}
	var setup, segs, walls, allocs []float64
	for _, r := range timed {
		setup = append(setup, slices.Min(r.SetupS))
		segs = append(segs, r.SegmentOpsPerS...)
		walls = append(walls, r.WallS)
		allocs = append(allocs, r.Metrics["allocs_per_op"])
	}
	s.metrics["setup_s"] = median(setup)
	slices.Sort(segs)
	s.metrics["wall_ops_per_s"] = percentile(segs, 90)
	s.metrics["allocs_per_op"] = median(allocs)
	s.metrics["peak_rss_mib"] = median(rss)
	if !traced {
		return s, nil
	}

	for k, v := range tr[0].Metrics {
		if !strings.HasPrefix(k, "cpu.") {
			s.metrics[k] = v
		}
	}
	// Profile shares pool the samples of every traced round.
	var samples int64
	var trWalls []float64
	for _, r := range tr {
		samples += r.CPUSamples
		trWalls = append(trWalls, r.WallS)
	}
	for k := range tr[0].Metrics {
		if !strings.HasPrefix(k, "cpu.") {
			continue
		}
		var sum float64
		for _, r := range tr {
			sum += r.Metrics[k] * float64(r.CPUSamples)
		}
		s.metrics[k] = 0
		if samples > 0 {
			s.metrics[k] = sum / float64(samples)
		}
	}
	s.metrics["trace.overhead_frac"] = median(trWalls)/median(walls) - 1
	for _, n := range tr[0].Unmapped {
		fmt.Fprintf(os.Stderr, "bench: %s: span row %q is not in the layer table (charged to %s)\n", w.Name, n, unmappedMetric)
	}
	return s, nil
}

// childGOMAXPROCS is the GOMAXPROCS of every round. A second P makes each
// Proc handoff wake another thread on another CPU: on a 2-CPU host shared
// with other tenants that made rounds about 30% slower and their wall-clock
// throughput several times noisier between runs, so rounds run on one P.
// The sharded workload then runs its shards' windows one after another:
// the barrier protocol, its windows and its cross-shard merges are the
// same, only not overlapped.
const childGOMAXPROCS = 1

// runChild runs one round of w in a fresh process of this binary and
// returns its report and peak RSS in MiB.
func runChild(w workload, seed uint64, mode string) (*roundResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childGOMAXPROCS))
	cmd.Stderr = os.Stderr
	// The round dies with this process, should anything kill it first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s round: %w", mode, err)
	}
	var r roundResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, 0, fmt.Errorf("%s round: %w", mode, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &r, rss, nil
}

// host describes the machine a run measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit,omitempty"`
}

func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childGOMAXPROCS,
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     gitHead(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitHead reads the checked-out commit from .git without running git; it
// returns "" outside a git checkout.
func gitHead() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	b, err = os.ReadFile(".git/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// warnIfOtherHost warns when this host differs from the one the committed
// baseline was measured on: wall-clock numbers then do not compare.
func warnIfOtherHost(h host, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var base struct {
		Host host `json:"host"`
	}
	if err := json.Unmarshal(b, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
		return
	}
	if base.Host.NProc != h.NProc || base.Host.GOMAXPROCS != h.GOMAXPROCS || base.Host.CPUModel != h.CPUModel {
		fmt.Fprintf(os.Stderr, "bench: warning: baseline host was %d CPUs (GOMAXPROCS %d, %s); this host is %d CPUs (GOMAXPROCS %d, %s); wall-clock metrics do not compare with %s\n",
			base.Host.NProc, base.Host.GOMAXPROCS, base.Host.CPUModel, h.NProc, h.GOMAXPROCS, h.CPUModel, path)
	}
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units, directions and bounds.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + ": no metrics declared")
	}
	return &s, nil
}

func printReport(f *os.File, w workload, seed uint64, h host, s *summary, want []metricSpec) {
	fmt.Fprintf(f, "# %s  stack=%s  seed=%d  rounds=%d timed, %d traced  ops/round=%d measured + %d warm-up  digest=%s\n",
		w.Name, w.Stack, seed, s.rounds, s.tracedRounds, w.Ops, w.WarmOps, s.digest)
	fmt.Fprintf(f, "# host: %d CPUs, GOMAXPROCS %d, %s, %s, %s, commit %q\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.CPUModel, h.Commit)
	for _, m := range want {
		fmt.Fprintf(f, "%-34s %14.6g %s\n", m.Name, s.metrics[m.Name], m.Unit)
	}
}

// recordLine is one -record entry.
type recordLine struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Rounds   int                `json:"rounds"`
	Digest   string             `json:"digest"`
	Host     host               `json:"host"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path string, rec recordLine) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
