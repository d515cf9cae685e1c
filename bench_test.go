// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact, as indexed in DESIGN.md §5). Each iteration runs the
// corresponding experiment at reduced scale and reports the headline values
// as custom metrics, so `go test -bench=.` doubles as a smoke-level
// reproduction; cmd/delibabench runs the full-scale version.
package deliba

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fio"
)

func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Ops = 200
	cfg.LatOps = 60
	return cfg
}

// BenchmarkFig3SoftwareReplication regenerates Fig. 3: the software
// baseline in replication mode (DK-SW vs D2-SW latency and throughput).
func BenchmarkFig3SoftwareReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			dk, _ := res.LatencyOf("deliba-k-sw", "rand-read", 4096)
			d2, _ := res.LatencyOf("deliba-2-sw", "rand-read", 4096)
			b.ReportMetric(dk.Microseconds(), "dk-sw-rand-read-µs")
			b.ReportMetric(d2.Microseconds(), "d2-sw-rand-read-µs")
		}
	}
}

// BenchmarkFig4SoftwareErasure regenerates Fig. 4 (EC mode baseline).
func BenchmarkFig4SoftwareErasure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			dk, _ := res.LatencyOf("deliba-k-sw", "rand-write", 4096)
			b.ReportMetric(dk.Microseconds(), "dk-sw-ec-rand-write-µs")
		}
	}
}

// BenchmarkTable1Kernels regenerates Table I: per-kernel software profile
// (really executing this repo's CRUSH/RS implementations) plus the hardware
// model's cycle/latency columns.
func BenchmarkTable1Kernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(rows[1].GoSWTime.Nanoseconds()), "straw2-go-sw-ns")
			b.ReportMetric(rows[1].ModelLatency.Microseconds()*1000, "straw2-rtl-ns")
		}
	}
}

// BenchmarkFig6HWReplicationThroughput and BenchmarkFig7HWReplicationIOPS
// regenerate the replication hardware sweep (one sweep backs both figures).
func BenchmarkFig6HWReplicationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.Fig6and7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			sp, _ := sweep.Speedup("rand-write", 4096)
			b.ReportMetric(sp, "dk/d2-4k-randwrite-x")
		}
	}
}

// BenchmarkFig7HWReplicationIOPS reports the KIOPS view at the paper's
// 4 kB random-write point.
func BenchmarkFig7HWReplicationIOPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.Fig6and7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			h := experiments.Headline(sweep)
			b.ReportMetric(h.BestIOPSGain, "best-iops-gain-x")
		}
	}
}

// BenchmarkFig8HWErasureThroughput regenerates the EC hardware sweep
// (DeLiBA-2 vs DeLiBA-K only; D1 had no EC accelerators).
func BenchmarkFig8HWErasureThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.Fig8and9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			sp, _ := sweep.Speedup("rand-write", 4096)
			b.ReportMetric(sp, "dk/d2-ec-4k-randwrite-x")
		}
	}
}

// BenchmarkFig9HWErasureIOPS is the KIOPS view of the EC sweep.
func BenchmarkFig9HWErasureIOPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.Fig8and9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			h := experiments.Headline(sweep)
			b.ReportMetric(h.BestIOPSGain, "best-ec-iops-gain-x")
		}
	}
}

// BenchmarkTable2Latency regenerates Table II: 4 kB end-to-end latency of
// D1/D2/DK (replication) and D2/DK (EC).
func BenchmarkTable2Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			dk, _ := res.Latency("deliba-k-hw", false, "rand-read")
			d2, _ := res.Latency("deliba-2-hw", false, "rand-read")
			b.ReportMetric(dk.Microseconds(), "dk-rand-read-µs")
			b.ReportMetric(d2.Microseconds(), "d2-rand-read-µs")
		}
	}
}

// BenchmarkTable3Resources emits the resource-utilisation report from the
// FPGA device model.
func BenchmarkTable3Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) != 2 {
			b.Fatal("table3 shape wrong")
		}
	}
}

// BenchmarkPowerModel reproduces the §V-c power measurement (195 W without
// partial reconfiguration, 170 W with it).
func BenchmarkPowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := experiments.Power()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(p.StaticWatts, "static-W")
			b.ReportMetric(p.DFXWatts, "dfx-W")
		}
	}
}

// BenchmarkRealWorldOLAP reproduces the ~30% execution-time reduction for
// the analytical workload.
func BenchmarkRealWorldOLAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.OLAP(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Reduction()*100, "exec-time-reduction-%")
		}
	}
}

// BenchmarkRealWorldOLTP is the transactional counterpart.
func BenchmarkRealWorldOLTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.OLTP(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Reduction()*100, "exec-time-reduction-%")
		}
	}
}

// BenchmarkAblations runs the ablation grid and reports the gains of
// optimization ① (kernel-polled rings) and ② (DMQ scheduler bypass).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Ablations(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rs[0].Gain(), "sqpoll-gain-x")
			b.ReportMetric(rs[1].Gain(), "bypass-gain-x")
		}
	}
}

// BenchmarkDFXReconfiguration exercises optimization ⑤ (live RM swaps).
func BenchmarkDFXReconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.DFX()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.SwapTimes["uniform"])/1e6, "rm-swap-ms")
		}
	}
}

// BenchmarkScaleSweep runs the city-scale sweep at the quick config on one
// worker and reports what the real cluster costs the simulator: engine
// events per completed op and wall-clock nanoseconds per event, over both
// runs of every cell.
func BenchmarkScaleSweep(b *testing.B) {
	prev := experiments.SetParallelism(1)
	defer experiments.SetParallelism(prev)
	var events, ops uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ScaleSweep(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Cells {
			events += c.Events
			// Each run completes every op its clients issue once, so the
			// failure run completes as many as the healthy one.
			ops += 2 * c.TotalOps
		}
	}
	b.ReportMetric(float64(events)/float64(ops), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkStackDKHW4kRandWrite is the raw headline datapoint: DeLiBA-K
// hardware, 4 kB random writes at the paper's queue configuration.
func BenchmarkStackDKHW4kRandWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(core.DefaultTestbedConfig())
		if err != nil {
			b.Fatal(err)
		}
		spec, err := core.ParseStackSpec("deliba-k-hw")
		if err != nil {
			b.Fatal(err)
		}
		stack, err := tb.BuildStack(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
			Name: "bench", ReadPct: 0, Pattern: core.Rand,
			BlockSize: 4096, QueueDepth: 16, Jobs: 3, Ops: 300, RampOps: 30, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.KIOPS(), "kIOPS")
			b.ReportMetric(res.MBps(), "MB/s")
		}
	}
}
