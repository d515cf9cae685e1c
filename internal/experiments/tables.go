package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/fpga"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Table1Row is one kernel row of Table I.
type Table1Row struct {
	Kernel fpga.KernelID
	// GoSWTime is the measured execution time of this repository's Go
	// implementation of the kernel (software path).
	GoSWTime time.Duration
	// PaperSWTime is the paper's profiled Ceph-kernel software time.
	PaperSWTime sim.Duration
	// RuntimeShare is the paper's "overall contribution to runtime".
	RuntimeShare float64
	// RTLCycles and ModelLatency come from the hardware model (= the
	// paper's Vivado columns).
	RTLCycles    int
	ModelLatency sim.Duration
	// PaperHWExec is the measured-on-U280 column.
	PaperHWExec sim.Duration
	// ModelHWExec is our simulated end-to-end kernel invocation including
	// the QDMA crossing of a 4 kB operand.
	ModelHWExec sim.Duration
	// SLOCs from the paper (C and Verilog).
	SLOCsC, SLOCsVerilog int
}

// Table1 profiles the software kernels (really executing this repo's CRUSH
// and Reed-Solomon implementations) and reads the hardware model.
func Table1() ([]Table1Row, error) {
	// A map shaped like the testbed for realistic bucket sizes.
	algs := map[fpga.KernelID]crush.Alg{
		fpga.KStraw:   crush.StrawAlg,
		fpga.KStraw2:  crush.Straw2Alg,
		fpga.KList:    crush.ListAlg,
		fpga.KTree:    crush.TreeAlg,
		fpga.KUniform: crush.UniformAlg,
	}
	order := []fpga.KernelID{fpga.KStraw, fpga.KStraw2, fpga.KList, fpga.KTree, fpga.KUniform, fpga.KRSEncoder}
	ops := make([]func(int) error, len(order))
	for k, id := range order {
		var err error
		if id == fpga.KRSEncoder {
			ops[k], err = rsEncodeOp()
		} else {
			ops[k], err = crushSelectOp(algs[id])
		}
		if err != nil {
			return nil, err
		}
	}
	goSW, err := minTimePerOp(ops...)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for k, id := range order {
		spec := fpga.KernelTable[id]
		hw, err := modelHWExec(id)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Kernel:       id,
			GoSWTime:     goSW[k],
			PaperSWTime:  spec.SWExecTime,
			RuntimeShare: spec.SWRuntimeShare,
			RTLCycles:    spec.RTLCyclesMax,
			ModelLatency: spec.PipelineLatency(),
			PaperHWExec:  spec.HWExecTime,
			ModelHWExec:  hw,
			SLOCsC:       spec.SLOCsC,
			SLOCsVerilog: spec.SLOCsVerilog,
		})
	}
	return rows, nil
}

// crushSelectOp returns one full rule evaluation (map walk + bucket draws)
// on a 32-OSD map with the given bucket algorithm, for minTimePerOp.
func crushSelectOp(alg crush.Alg) (func(i int) error, error) {
	m, _, err := crush.BuildCluster(crush.ClusterSpec{
		Hosts: 2, OSDsPerHost: 16, HostAlg: alg, RootAlg: alg,
	})
	if err != nil {
		return nil, err
	}
	rule := m.Rule("replicated_rule")
	return func(i int) error {
		_, err := m.Select(rule, uint32(i), 2, nil)
		return err
	}, nil
}

// rsEncodeOp returns one 4 kB stripe encode with the testbed geometry, for
// minTimePerOp.
func rsEncodeOp() (func(int) error, error) {
	code, err := erasure.New(4, 2)
	if err != nil {
		return nil, err
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	shards := code.Split(data)
	return func(int) error { return code.Encode(shards) }, nil
}

// modelHWExec simulates one end-to-end kernel invocation: H2C of a 4 kB
// operand through QDMA, the kernel FSM, and the C2H result writeback.
func modelHWExec(id fpga.KernelID) (sim.Duration, error) {
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		return 0, err
	}
	shell, err := fpga.BuildShell(tb.Eng, fpga.ShellConfig{
		Map:        tb.Cluster.Map,
		Rule:       tb.Cluster.Map.Rule("replicated_osd"),
		Code:       tb.ECPool.Code,
		StaticOnly: true,
	})
	if err != nil {
		return 0, err
	}
	eng := tb.Eng
	// Host→card operand movement is part of the measured time on the real
	// card; model it as a QDMA-class PCIe crossing, and the C2H result plus
	// completion as a second one after the kernel.
	eng.Wait(func(wake func()) { eng.Schedule(3*sim.Microsecond, wake) })
	eng.Wait(func(wake func()) {
		if id == fpga.KRSEncoder {
			shell.RS.Encode(4096, nil, func(error) { wake() })
			return
		}
		var acc *fpga.CrushAccel
		switch id {
		case fpga.KStraw:
			acc = shell.Straw
		case fpga.KStraw2:
			acc = shell.Straw2
		default:
			acc, _ = shell.DynAccel(id)
		}
		if acc == nil {
			wake()
			return
		}
		acc.Select(7, 0, 2, func([]int, error) { wake() })
	})
	eng.Wait(func(wake func()) { eng.Schedule(2*sim.Microsecond, wake) })
	return sim.Duration(eng.Now()), nil
}

// Table1Table renders the rows.
func Table1Table(rows []Table1Row) *metrics.Table {
	t := metrics.NewTable("Table I — Replication and EC kernels",
		"kernel", "Go SW (measured)", "paper SW", "share", "RTL cycles",
		"model latency", "paper HW exec", "model HW exec", "SLOC C", "SLOC Verilog")
	for _, r := range rows {
		t.AddRow(
			fpga.KernelTable[r.Kernel].Name,
			fmt.Sprintf("%.2fµs", float64(r.GoSWTime.Nanoseconds())/1000),
			us(r.PaperSWTime),
			fmt.Sprintf("%.0f%%", r.RuntimeShare*100),
			r.RTLCycles,
			fmt.Sprintf("%.3fµs", r.ModelLatency.Microseconds()),
			us(r.PaperHWExec),
			fmt.Sprintf("%.2fµs", r.ModelHWExec.Microseconds()),
			r.SLOCsC,
			r.SLOCsVerilog,
		)
	}
	return t
}

// Table2Result holds the end-to-end 4 kB latency grid.
type Table2Result struct {
	Replication []Point // D1, D2, DK
	Erasure     []Point // D2, DK
}

// paperTable2 reference values in µs: seq-read, seq-write, rand-read,
// rand-write.
var paperTable2 = map[string]map[string][4]float64{
	"replication": {
		"deliba-1-hw": {65, 95, 130, 98},
		"deliba-2-hw": {55, 75, 85, 82},
		"deliba-k-hw": {40, 52, 64, 68},
	},
	"erasure": {
		"deliba-2-hw": {48, 70, 82, 75},
		"deliba-k-hw": {38, 47, 59, 60},
	},
}

// Table2 measures the I/O request latency grid of Table II. The replication
// and EC grids are enumerated as one cell list and fanned out together.
func Table2(cfg Config) (*Table2Result, error) {
	repl := enumCells([]string{"deliba-1-hw", "deliba-2-hw", "deliba-k-hw"},
		StdWorkloads, []int{4096})
	ecCells := enumCells([]string{"deliba-2-hw", "deliba-k-hw"},
		StdWorkloads, []int{4096})
	points, err := RunCells(len(repl)+len(ecCells), func(i int) (Point, error) {
		if i < len(repl) {
			c := repl[i]
			return runLatency(cfg, c.stack, false, c.wl, c.bs)
		}
		c := ecCells[i-len(repl)]
		return runLatency(cfg, c.stack, true, c.wl, c.bs)
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{
		Replication: points[:len(repl)],
		Erasure:     points[len(repl):],
	}, nil
}

// Digest returns an FNV-1a hash over the latency grid in run order.
func (r *Table2Result) Digest() uint64 {
	h := fnv.New64a()
	hashPoints(h, r.Replication)
	hashPoints(h, r.Erasure)
	return h.Sum64()
}

// Latency returns the measured mean for a cell.
func (r *Table2Result) Latency(stack string, ec bool, wl string) (sim.Duration, bool) {
	pts := r.Replication
	if ec {
		pts = r.Erasure
	}
	p, ok := findPoint(pts, stack, wl, 4096)
	return p.Mean, ok
}

// Tables renders Table II with paper reference values alongside.
func (r *Table2Result) Tables() []*metrics.Table {
	render := func(title, mode string, stacks []string, pts []Point) *metrics.Table {
		t := metrics.NewTable(title,
			"framework", "seq-read", "seq-write", "rand-read", "rand-write", "paper (sr/sw/rr/rw)")
		for _, stack := range stacks {
			row := []any{stack}
			for _, wl := range StdWorkloads {
				p, _ := findPoint(pts, stack, wl.Name, 4096)
				row = append(row, us(p.Mean))
			}
			ref := paperTable2[mode][stack]
			row = append(row, fmt.Sprintf("%.0f/%.0f/%.0f/%.0f", ref[0], ref[1], ref[2], ref[3]))
			t.AddRow(row...)
		}
		return t
	}
	return []*metrics.Table{
		render("Table II — 4 kB latency [µs], replication", "replication",
			[]string{"deliba-1-hw", "deliba-2-hw", "deliba-k-hw"}, r.Replication),
		render("Table II — 4 kB latency [µs], erasure coding", "erasure",
			[]string{"deliba-2-hw", "deliba-k-hw"}, r.Erasure),
	}
}

// Table3 renders the resource-utilisation report from the FPGA model.
func Table3() ([]*metrics.Table, error) {
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		return nil, err
	}
	shell, err := fpga.BuildShell(tb.Eng, fpga.ShellConfig{
		Map:  tb.Cluster.Map,
		Rule: tb.Cluster.Map.Rule("replicated_osd"),
		Code: tb.ECPool.Code,
	})
	if err != nil {
		return nil, err
	}
	dev := shell.Dev
	total := dev.TotalResources()

	static := metrics.NewTable(
		"Table III — static kernels (RTL kernel + RTL TCP/IP + CMAC + QDMA)",
		"kernel", "LUTs", "LUT %", "registers", "FF %", "BRAM", "BRAM %", "URAM", "URAM %", "DSP")
	for _, id := range []fpga.KernelID{fpga.KStraw, fpga.KStraw2, fpga.KRSEncoder} {
		spec := fpga.KernelTable[id]
		u := spec.Usage.Utilization(total)
		static.AddRow(spec.Name,
			spec.Usage.LUTs, fmt.Sprintf("%.2f%%", u["LUT"]),
			spec.Usage.Registers, fmt.Sprintf("%.2f%%", u["FF"]),
			spec.Usage.BRAM, fmt.Sprintf("%.2f%%", u["BRAM"]),
			spec.Usage.URAM, fmt.Sprintf("%.2f%%", u["URAM"]),
			spec.Usage.DSP)
	}

	slr0 := dev.SLRs[0].Total
	rms := metrics.NewTable(
		"Table III — partial reconfiguration modules (RMs) in SLR0",
		"RM", "LUTs", "LUT %", "registers", "FF %", "BRAM", "BRAM %", "URAM", "URAM %", "DSP", "partial BIT", "load time")
	for _, row := range shell.RP.ConfigurationAnalysis() {
		u := row.Usage.Utilization(slr0)
		rms.AddRow(row.RM,
			row.Usage.LUTs, fmt.Sprintf("%.2f%%", u["LUT"]),
			row.Usage.Registers, fmt.Sprintf("%.2f%%", u["FF"]),
			row.Usage.BRAM, fmt.Sprintf("%.2f%%", u["BRAM"]),
			row.Usage.URAM, fmt.Sprintf("%.2f%%", u["URAM"]),
			row.Usage.DSP,
			fmt.Sprintf("%.1fMB", float64(row.BitBytes)/1e6),
			row.LoadTime.String())
	}
	return []*metrics.Table{static, rms}, nil
}

// PowerResult reproduces the §V-c measurement: full load with and without
// partial reconfiguration.
type PowerResult struct {
	StaticWatts float64 // no partial reconfiguration: all kernels resident
	DFXWatts    float64 // with DFX: one RM live
}

// Power measures both design variants under load.
func Power() (*PowerResult, error) {
	buildAndMeasure := func(staticOnly bool) (float64, error) {
		tb, err := core.NewTestbed(core.DefaultTestbedConfig())
		if err != nil {
			return 0, err
		}
		shell, err := fpga.BuildShell(tb.Eng, fpga.ShellConfig{
			Map:        tb.Cluster.Map,
			Rule:       tb.Cluster.Map.Rule("replicated_osd"),
			Code:       tb.ECPool.Code,
			StaticOnly: staticOnly,
		})
		if err != nil {
			return 0, err
		}
		if !staticOnly {
			shell.LoadDynKernel(fpga.KUniform, func(error) {})
			tb.Eng.Run()
		}
		return shell.Power(), nil
	}
	s, err := buildAndMeasure(true)
	if err != nil {
		return nil, err
	}
	d, err := buildAndMeasure(false)
	if err != nil {
		return nil, err
	}
	return &PowerResult{StaticWatts: s, DFXWatts: d}, nil
}

// Table renders the power comparison.
func (p *PowerResult) Table() *metrics.Table {
	t := metrics.NewTable("Power — full load (paper §V-c)",
		"configuration", "model [W]", "paper [W]")
	t.AddRow("no partial reconfiguration", p.StaticWatts, 195.0)
	t.AddRow("with partial reconfiguration", p.DFXWatts, 170.0)
	return t
}
