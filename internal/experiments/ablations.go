package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/fpga"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// AblationResult compares one design knob on/off.
type AblationResult struct {
	Name     string
	Baseline string
	Variant  string
	// BaselineKIOPS/VariantKIOPS at the 4 kB random-write point.
	BaselineKIOPS float64
	VariantKIOPS  float64
	BaselineLat   sim.Duration
	VariantLat    sim.Duration
}

// Gain returns baseline/variant KIOPS (how much the paper's choice wins).
func (a *AblationResult) Gain() float64 {
	if a.VariantKIOPS == 0 {
		return 0
	}
	return a.BaselineKIOPS / a.VariantKIOPS
}

// Table renders the ablation.
func (a *AblationResult) Table() *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("Ablation — %s", a.Name),
		"configuration", "KIOPS (4kB rand-write)", "mean latency")
	t.AddRow(a.Baseline, a.BaselineKIOPS, a.BaselineLat.String())
	t.AddRow(a.Variant, a.VariantKIOPS, a.VariantLat.String())
	return t
}

// runDKVariant measures a mutated DK-HW stack spec: throughput under the
// loaded configuration, and latency at queue depth 1 (where the per-op
// mechanism under ablation is visible rather than hidden by queueing).
func runDKVariant(cfg Config, mutate func(*core.StackSpec)) (kiops float64, lat sim.Duration, err error) {
	run := func(qd, jobs, ops int) (*fio.Result, error) {
		tcfg := core.DefaultTestbedConfig()
		tcfg.Jitter = false
		tb, err := core.NewTestbed(tcfg)
		if err != nil {
			return nil, err
		}
		spec, err := core.ParseStackSpec("deliba-k-hw")
		if err != nil {
			return nil, err
		}
		if mutate != nil {
			mutate(&spec)
		}
		stack, err := tb.BuildStack(spec)
		if err != nil {
			return nil, err
		}
		res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
			Name: "ablation", ReadPct: 0, Pattern: core.Rand,
			BlockSize: 4096, QueueDepth: qd, Jobs: jobs,
			Ops: ops, RampOps: ops / 10, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		if res.Errors > 0 {
			return nil, fmt.Errorf("experiments: ablation run had %d errors", res.Errors)
		}
		return res, nil
	}
	loaded, err := run(cfg.QueueDepth, cfg.Jobs, cfg.Ops)
	if err != nil {
		return 0, 0, err
	}
	qd1, err := run(1, 1, cfg.LatOps)
	if err != nil {
		return 0, 0, err
	}
	return loaded.KIOPS(), qd1.Lat.Mean(), nil
}

// ablationSpec describes one design-knob ablation as data — a mutation of
// the DK-HW StackSpec — so the whole grid can be enumerated and fanned out
// by the runner, and each variant is just a different declarative layer
// composition.
type ablationSpec struct {
	name, baseline, variant string
	mutate                  func(*core.StackSpec)
}

// ablationSpecs is the ablation grid in presentation order.
var ablationSpecs = []ablationSpec{
	{
		name:     "io_uring kernel-polled mode (optimization ①)",
		baseline: "SQPOLL (DeLiBA-K)",
		variant:  "interrupt + enter syscalls",
		mutate:   func(s *core.StackSpec) { s.RingInterrupt = true },
	},
	{
		name:     "DMQ scheduler bypass (optimization ②)",
		baseline: "bypass (DeLiBA-K)",
		variant:  "mq-deadline elevator",
		mutate:   func(s *core.StackSpec) { s.Block = core.BlockMQDeadline },
	},
	{
		name:     "multiple per-core io_uring instances",
		baseline: "3 instances (DeLiBA-K)",
		variant:  "1 instance",
		mutate:   func(s *core.StackSpec) { s.Instances = 1 },
	},
}

// AblationStackSpecs returns the mutated spec of every grid entry (the
// baseline DK-HW spec with the entry's mutation applied).
func AblationStackSpecs() ([]core.StackSpec, error) {
	out := make([]core.StackSpec, 0, len(ablationSpecs))
	for _, a := range ablationSpecs {
		spec, err := core.ParseStackSpec("deliba-k-hw")
		if err != nil {
			return nil, err
		}
		a.mutate(&spec)
		out = append(out, spec)
	}
	return out, nil
}

// runAblations measures the given specs: two cells per ablation (baseline
// testbed and mutated testbed), dispatched through the runner. Each cell is
// a complete loaded+QD1 measurement pair on fresh testbeds.
func runAblations(cfg Config, specs []ablationSpec) ([]*AblationResult, error) {
	type cellOut struct {
		kiops float64
		lat   sim.Duration
	}
	outs, err := RunCells(2*len(specs), func(i int) (cellOut, error) {
		var mutate func(*core.StackSpec)
		if i%2 == 1 {
			mutate = specs[i/2].mutate
		}
		kiops, lat, err := runDKVariant(cfg, mutate)
		return cellOut{kiops: kiops, lat: lat}, err
	})
	if err != nil {
		return nil, err
	}
	results := make([]*AblationResult, len(specs))
	for s, spec := range specs {
		base, vari := outs[2*s], outs[2*s+1]
		results[s] = &AblationResult{
			Name:          spec.name,
			Baseline:      spec.baseline,
			Variant:       spec.variant,
			BaselineKIOPS: base.kiops,
			BaselineLat:   base.lat,
			VariantKIOPS:  vari.kiops,
			VariantLat:    vari.lat,
		}
	}
	return results, nil
}

// Ablations runs the whole testbed-knob ablation grid.
func Ablations(cfg Config) ([]*AblationResult, error) {
	return runAblations(cfg, ablationSpecs)
}

// AblationsDigest folds the measured ablation grid into an FNV-1a hash.
func AblationsDigest(results []*AblationResult) uint64 {
	h := fnv.New64a()
	for _, a := range results {
		fmt.Fprintf(h, "%s|%.9g|%.9g|%d|%d\n",
			a.Name, a.BaselineKIOPS, a.VariantKIOPS,
			int64(a.BaselineLat), int64(a.VariantLat))
	}
	return h.Sum64()
}

// DFXResult quantifies optimization ⑤: adapting the replication
// accelerator to a changed cluster without a full reprogram.
type DFXResult struct {
	// SwapTimes per RM through MCAP.
	SwapTimes map[string]sim.Duration
	// FullReloadTime is the static alternative: full bitstream plus the
	// storage-server power cycle the paper says it requires.
	FullReloadTime sim.Duration
	// Reconfigs actually performed in the live-swap exercise.
	Reconfigs uint64
}

// fullBitstreamBytes approximates a U280 full configuration image.
const fullBitstreamBytes = 92 * 1000 * 1000

// powerCycleTime is the storage-server reboot the static flow needs.
const powerCycleTime = 90 * sim.Second

// DFX exercises live reconfiguration between the three replication RMs
// while the static region stays up, and contrasts with the full-reload
// alternative.
func DFX() (*DFXResult, error) {
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
	res := &DFXResult{SwapTimes: make(map[string]sim.Duration)}
	for _, rm := range shell.RP.RMs() {
		d, err := shell.RP.ReconfigDuration(rm)
		if err != nil {
			return nil, err
		}
		res.SwapTimes[rm] = d
	}
	// Live swap exercise: uniform → list → tree, as a cluster shrinks and
	// grows. The static Straw2 kernel keeps serving while swapping.
	for _, k := range []fpga.KernelID{fpga.KUniform, fpga.KList, fpga.KTree} {
		tb.Eng.Wait(func(wake func()) {
			shell.LoadDynKernel(k, func(e error) { err = e; wake() })
		})
		if err != nil {
			return nil, err
		}
		tb.Eng.Wait(func(wake func()) {
			shell.Straw2.Select(1, 0, 2, func(_ []int, e error) { err = e; wake() })
		})
		if err != nil {
			return nil, err
		}
	}
	res.Reconfigs = shell.RP.Reconfigs()
	res.FullReloadTime = sim.Duration(float64(fullBitstreamBytes)/fpga.MCAPBytesPerSec*1e9) + powerCycleTime
	return res, nil
}

// Table renders the DFX comparison.
func (d *DFXResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — DFX partial reconfiguration (optimization ⑤)",
		"action", "downtime of dynamic region", "static region")
	for _, rm := range []string{"list", "tree", "uniform"} {
		if d, ok := d.SwapTimes[rm]; ok {
			t.AddRow("swap RM to "+rm, d.String(), "keeps serving")
		}
	}
	t.AddRow("full bitstream + power cycle", d.FullReloadTime.String(), "down")
	return t
}

// MTURow compares standard-Ethernet and jumbo framing through the RTL TCP
// pipeline (the paper's configurable 1518-9018 byte packet length, §IV-B).
type MTURow struct {
	Bytes        int
	SegsStd      int
	SegsJumbo    int
	PipeStd      sim.Duration
	PipeJumbo    sim.Duration
	JumboSpeedup float64
}

// MTU computes the framing ablation analytically from the hardware TCP
// framing model.
func MTU() []MTURow {
	var rows []MTURow
	for _, n := range []int{4096, 65536, 131072, 524288} {
		r := MTURow{
			Bytes:     n,
			SegsStd:   fpga.Segments(fpga.MaxPacketStandard, n),
			SegsJumbo: fpga.Segments(fpga.MaxPacketJumbo, n),
			PipeStd:   fpga.PipeTime(fpga.MaxPacketStandard, n),
			PipeJumbo: fpga.PipeTime(fpga.MaxPacketJumbo, n),
		}
		r.JumboSpeedup = float64(r.PipeStd) / float64(r.PipeJumbo)
		rows = append(rows, r)
	}
	return rows
}

// MTUTable renders the framing comparison.
func MTUTable(rows []MTURow) *metrics.Table {
	t := metrics.NewTable(
		"Ablation — packet length: standard (1518) vs jumbo (9018) framing",
		"message", "segments std", "segments jumbo", "TX pipe std", "TX pipe jumbo", "jumbo gain")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dkB", r.Bytes/1024),
			r.SegsStd, r.SegsJumbo,
			r.PipeStd.String(), r.PipeJumbo.String(),
			fmt.Sprintf("%.2fx", r.JumboSpeedup))
	}
	return t
}
