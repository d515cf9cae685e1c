package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fio"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the trace sweep: per-I/O span tracing over a representative
// slice of the evaluation grid. Healthy cells (the Fig. 3 software
// baselines plus the DeLiBA-K hardware stack) sample every Nth op by
// submit sequence; fault cells (OSD crash, degrading disk — the scenarios
// whose tail the paper's availability story hinges on) trace every op, so
// retries, failovers and degraded reads always carry their cause chains.
// Every trace ID derives from the cell salt and the op's seeded submit
// sequence, never wall clock, so the sweep's encoded bytes are the
// determinism oracle: serial and -parallel runs must produce the identical
// file.

// DefaultTraceSample is the every-Nth root-op sampling used for healthy
// cells; fault cells always run with SampleEvery=1.
const DefaultTraceSample = 8

// traceCell is one traced coordinate of the sweep.
type traceCell struct {
	label  string
	stack  string // spec name
	wl     Workload
	bs     int
	plan   *faultPlan // nil = healthy cell
	sample int
}

// TraceSweepResult is the finalized trace set, one Result per cell in
// enumeration order.
type TraceSweepResult struct {
	Cells []*trace.Result
}

// traceSalt derives the cell's trace-ID salt from the run seed and the
// cell label, so cells never collide and IDs are stable across runs.
func traceSalt(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return seed ^ h.Sum64()
}

// planByName finds a fault-sweep scenario by name.
func planByName(name string) *faultPlan {
	for i := range faultPlans {
		if faultPlans[i].name == name {
			return &faultPlans[i]
		}
	}
	return nil
}

// traceCells enumerates the sweep grid in canonical order: healthy
// fig3-style cells first (stack outermost), then the fault cells.
func traceCells(sample int) []traceCell {
	if sample <= 0 {
		sample = DefaultTraceSample
	}
	var cells []traceCell
	wls := []Workload{
		{"rand-read", 100, core.Rand},
		{"rand-write", 0, core.Rand},
	}
	for _, stack := range []string{"deliba-2-sw", "deliba-k-sw", "deliba-k-hw"} {
		for _, wl := range wls {
			cells = append(cells, traceCell{
				label:  fmt.Sprintf("fig3/%s/%s/4k", stack, wl.Name),
				stack:  stack,
				wl:     wl,
				bs:     4096,
				sample: sample,
			})
		}
	}
	// Fault scenarios chosen for their cause chains: partition forces
	// deadline retries and read failovers on the replicated pool;
	// osd-crash-ec forces degraded EC reads (client-side decode on the
	// software stack, on-card reconstruction on the hardware stack).
	for _, stack := range []string{"deliba-k-sw", "deliba-k-hw"} {
		for _, name := range []string{"partition", "osd-crash-ec"} {
			cells = append(cells, traceCell{
				label:  fmt.Sprintf("faults/%s/%s", stack, name),
				stack:  stack,
				wl:     Workload{"rand-rw70", 70, core.Rand},
				bs:     4096,
				plan:   planByName(name),
				sample: 1,
			})
		}
	}
	return cells
}

// TraceSweep runs the traced grid through the parallel runner. Cells are
// hermetic (fresh testbed, tracer and injector each), so the worker count
// cannot perturb the recorded spans.
func TraceSweep(cfg Config, sample int) (*TraceSweepResult, error) {
	cells := traceCells(sample)
	out, err := RunCells(len(cells), func(i int) (*trace.Result, error) {
		return runTraceCell(cfg, cells[i])
	})
	if err != nil {
		return nil, err
	}
	return &TraceSweepResult{Cells: out}, nil
}

// runTraceCell measures one traced cell: testbed (resilient for fault
// cells), tracer registered before the stack is built so every layer wires
// its sink, optional armed injector, one fio run, then Finalize after the
// run has drained.
func runTraceCell(cfg Config, c traceCell) (*trace.Result, error) {
	tcfg := core.DefaultTestbedConfig()
	if c.plan != nil {
		tcfg.Resilience = core.DefaultResilienceConfig()
		tcfg.Resilience.Seed = cfg.Seed
	}
	tb, err := core.NewTestbed(tcfg)
	if err != nil {
		return nil, err
	}
	tr := trace.New(trace.Config{SampleEvery: c.sample, Salt: traceSalt(cfg.Seed, c.label)})
	tb.EnableTracing(tr)
	ec := c.plan != nil && c.plan.ec
	stack, err := buildNamed(tb, c.stack, ec)
	if err != nil {
		return nil, err
	}
	if c.plan != nil && c.plan.arm != nil {
		in := faults.NewInjector(tb.Eng, tb.Cluster, cfg.Seed)
		rng := sim.NewRNG(planSeed(cfg.Seed, c.plan.name))
		c.plan.arm(in, rng, len(tb.Cluster.OSDs), len(tb.Cluster.NodeHosts))
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       "trace-" + c.label,
		ReadPct:    c.wl.ReadPct,
		Pattern:    c.wl.Pattern,
		BlockSize:  c.bs,
		QueueDepth: cfg.QueueDepth,
		Jobs:       cfg.Jobs,
		Ops:        cfg.Ops,
		RampOps:    cfg.RampOps,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Fault cells fold errors into the trace (a timed-out op's span tree is
	// part of the tail story); healthy cells must complete cleanly.
	if c.plan == nil && res.Errors > 0 {
		return nil, fmt.Errorf("experiments: trace cell %s: %d I/O errors", c.label, res.Errors)
	}
	return tr.Finalize(c.label), nil
}

// Encode writes the sweep as one Perfetto-loadable trace file.
func (r *TraceSweepResult) Encode(w io.Writer) error {
	return trace.WriteFile(w, r.Cells)
}

// Digest hashes the encoded trace bytes — the oracle for byte-identical
// traces across serial and -parallel runs.
func (r *TraceSweepResult) Digest() uint64 {
	h := fnv.New64a()
	if err := r.Encode(h); err != nil {
		return 0
	}
	return h.Sum64()
}

// Table summarises each traced cell: sampling counts and the top three
// critical-path contributors over its tail exemplars.
func (r *TraceSweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Per-I/O tracing: sampled spans and tail critical path per cell",
		"cell", "ops", "sampled", "spans", "exemplars", "critical path (top 3)")
	for _, c := range r.Cells {
		var path []string
		for i, p := range c.CritPath {
			if i == 3 {
				break
			}
			path = append(path, fmt.Sprintf("%s %.0f%%", p.Name, p.Share*100))
		}
		t.AddRow(c.Cell, c.Ops, c.Sampled, len(c.Spans), len(c.Exemplars), strings.Join(path, ", "))
	}
	return t
}

// Cell returns the finalized result for a cell label.
func (r *TraceSweepResult) Cell(label string) (*trace.Result, bool) {
	for _, c := range r.Cells {
		if c.Cell == label {
			return c, true
		}
	}
	return nil, false
}
