package experiments

import (
	"strings"
	"testing"

	"repro/internal/fpga"
	"repro/internal/sim"
)

func TestFig3ShapeHolds(t *testing.T) {
	res, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// DK-SW must beat D2-SW on latency at every grid cell.
	for _, wl := range StdWorkloads {
		for _, bs := range swBaselineBlockSizes {
			d2, ok1 := findPoint(res.Latency, "deliba-2-sw", wl.Name, bs)
			dk, ok2 := findPoint(res.Latency, "deliba-k-sw", wl.Name, bs)
			if !ok1 || !ok2 {
				t.Fatalf("missing cells %s/%d", wl.Name, bs)
			}
			if dk.Mean >= d2.Mean {
				t.Errorf("%s/%d: DK-SW latency %v not below D2-SW %v", wl.Name, bs, dk.Mean, d2.Mean)
			}
		}
	}
	// Fig 3 anchor: 4 kB random read ~85 µs DK-SW vs ~130 µs D2-SW.
	dk, _ := findPoint(res.Latency, "deliba-k-sw", "rand-read", 4096)
	d2, _ := findPoint(res.Latency, "deliba-2-sw", "rand-read", 4096)
	if dk.Mean < 60*sim.Microsecond || dk.Mean > 110*sim.Microsecond {
		t.Errorf("DK-SW rand-read 4kB = %v, want ~85µs", dk.Mean)
	}
	if d2.Mean < 95*sim.Microsecond || d2.Mean > 165*sim.Microsecond {
		t.Errorf("D2-SW rand-read 4kB = %v, want ~130µs", d2.Mean)
	}
	tables := res.Tables()
	if len(tables) != 2 || !strings.Contains(tables[0].String(), "Fig 3a") {
		t.Fatal("Fig3 table rendering broken")
	}
}

func TestFig4ECBaseline(t *testing.T) {
	res, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// EC mode: DK-SW random write throughput gain over D2-SW (paper: 2.88x
	// at the cluster level; require a clear win).
	d2, _ := findPoint(res.Rate, "deliba-2-sw", "rand-write", 4096)
	dk, _ := findPoint(res.Rate, "deliba-k-sw", "rand-write", 4096)
	if dk.MBps <= d2.MBps {
		t.Errorf("EC rand-write: DK-SW %.1f MB/s not above D2-SW %.1f", dk.MBps, d2.MBps)
	}
	if !strings.Contains(res.Tables()[0].Title, "Fig 4a") {
		t.Fatal("table titles wrong")
	}
}

func TestTable1KernelProfile(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.GoSWTime <= 0 {
			t.Errorf("%v: Go SW profile not measured", r.Kernel)
		}
		if r.ModelLatency <= 0 || r.ModelLatency > sim.Microsecond {
			t.Errorf("%v: model latency %v out of Vivado range", r.Kernel, r.ModelLatency)
		}
		if r.ModelHWExec <= 0 {
			t.Errorf("%v: model HW exec missing", r.Kernel)
		}
		// The premise of the paper: HW kernel latency is orders of
		// magnitude below the software kernel profile.
		if float64(r.ModelLatency) > float64(r.PaperSWTime)/10 {
			t.Errorf("%v: model latency %v not ≪ SW %v", r.Kernel, r.ModelLatency, r.PaperSWTime)
		}
	}
	tab := Table1Table(rows)
	if tab.NumRows() != 6 {
		t.Fatal("table rendering lost rows")
	}
}

func TestTable2LatencyGrid(t *testing.T) {
	res, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Orderings per workload: D1 > D2 > DK (replication), D2 > DK (EC).
	for _, wl := range StdWorkloads {
		d1, _ := res.Latency("deliba-1-hw", false, wl.Name)
		d2, _ := res.Latency("deliba-2-hw", false, wl.Name)
		dk, _ := res.Latency("deliba-k-hw", false, wl.Name)
		if !(dk < d2 && d2 < d1) {
			t.Errorf("replication %s: DK=%v D2=%v D1=%v (want DK<D2<D1)", wl.Name, dk, d2, d1)
		}
		d2e, _ := res.Latency("deliba-2-hw", true, wl.Name)
		dke, _ := res.Latency("deliba-k-hw", true, wl.Name)
		if dke >= d2e {
			t.Errorf("EC %s: DK=%v not below D2=%v", wl.Name, dke, d2e)
		}
	}
	// Paper anchor: DK rand-read 64 µs ±30%.
	dkrr, _ := res.Latency("deliba-k-hw", false, "rand-read")
	if dkrr < 45*sim.Microsecond || dkrr > 85*sim.Microsecond {
		t.Errorf("DK rand-read = %v, want ~64µs", dkrr)
	}
	if len(res.Tables()) != 2 {
		t.Fatal("Table II rendering wrong")
	}
}

func TestTable3Resources(t *testing.T) {
	tabs, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	s := tabs[0].String()
	// Paper row check: Straw bucket 78,555 LUTs ≈ 6.04% of 1.3M.
	if !strings.Contains(s, "78555") {
		t.Errorf("static table missing straw LUT count:\n%s", s)
	}
	rm := tabs[1].String()
	if !strings.Contains(rm, "uniform") || !strings.Contains(rm, "62456") {
		t.Errorf("RM table missing uniform row:\n%s", rm)
	}
}

func TestPowerMatchesPaper(t *testing.T) {
	p, err := Power()
	if err != nil {
		t.Fatal(err)
	}
	if p.StaticWatts != 195 {
		t.Errorf("static power = %v, want 195", p.StaticWatts)
	}
	if p.DFXWatts != 170 {
		t.Errorf("DFX power = %v, want 170", p.DFXWatts)
	}
	if !strings.Contains(p.Table().String(), "195") {
		t.Fatal("power table rendering wrong")
	}
}

func TestHWSweepAndHeadline(t *testing.T) {
	cfg := Quick()
	sweep, err := HWSweep(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	// DK beats D2 at every write cell.
	for _, wl := range []string{"rand-write", "seq-write"} {
		for _, bs := range BlockSizes {
			sp, err := sweep.Speedup(wl, bs)
			if err != nil {
				t.Fatal(err)
			}
			if sp <= 1.0 {
				t.Errorf("%s/%d: DK speedup %.2f <= 1", wl, bs, sp)
			}
		}
	}
	// Shape: 4 kB rand-write speedup exceeds the 128 kB seq-write one.
	small, _ := sweep.Speedup("rand-write", 4096)
	large, _ := sweep.Speedup("seq-write", 131072)
	if small <= large {
		t.Errorf("speedup shape inverted: 4k=%.2f 128k=%.2f", small, large)
	}
	// Generation ordering holds at every sweep cell: D1 < D2 < DK.
	for _, wl := range StdWorkloads {
		for _, bs := range BlockSizes {
			d1, _ := findPoint(sweep.Points, "deliba-1-hw", wl.Name, bs)
			d2, _ := findPoint(sweep.Points, "deliba-2-hw", wl.Name, bs)
			dk, _ := findPoint(sweep.Points, "deliba-k-hw", wl.Name, bs)
			if !(d1.MBps < d2.MBps && d2.MBps < dk.MBps) {
				t.Errorf("%s/%d: throughput ordering violated: D1=%.1f D2=%.1f DK=%.1f",
					wl.Name, bs, d1.MBps, d2.MBps, dk.MBps)
			}
		}
	}
	h := Headline(sweep)
	if h.BestThroughputGain < 1.8 || h.BestIOPSGain < 1.8 {
		t.Errorf("headline gains too small: %.2fx IOPS, %.2fx MB/s",
			h.BestIOPSGain, h.BestThroughputGain)
	}
	if len(sweep.ThroughputTables()) != 4 || len(sweep.IOPSTables()) != 4 {
		t.Fatal("sweep table rendering wrong")
	}
}

func TestECSweep(t *testing.T) {
	cfg := Quick()
	cfg.Ops = 80
	sweep, err := HWSweep(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Stacks) != 2 {
		t.Fatalf("EC sweep stacks = %v (D1 must be absent)", sweep.Stacks)
	}
	sp, err := sweep.Speedup("rand-write", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 1.0 {
		t.Errorf("EC 4kB rand-write speedup = %.2f", sp)
	}
}

func TestRealWorldReduction(t *testing.T) {
	cfg := Quick()
	olap, err := OLAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if olap.Reduction() <= 0.05 {
		t.Errorf("OLAP reduction = %.0f%%, want clearly positive (~30%%)", olap.Reduction()*100)
	}
	oltp, err := OLTP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oltp.Reduction() <= 0.05 {
		t.Errorf("OLTP reduction = %.0f%%, want clearly positive (~30%%)", oltp.Reduction()*100)
	}
	if !strings.Contains(olap.Table().String(), "reduction") {
		t.Fatal("table rendering broken")
	}
}

func TestAblations(t *testing.T) {
	rs, err := Ablations(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("ablation grid has %d entries, want 3", len(rs))
	}
	sq, byp, inst := rs[0], rs[1], rs[2]
	if sq.BaselineLat >= sq.VariantLat {
		t.Errorf("SQPOLL latency %v not below interrupt mode %v", sq.BaselineLat, sq.VariantLat)
	}
	if byp.BaselineLat >= byp.VariantLat {
		t.Errorf("bypass latency %v not below elevator %v", byp.BaselineLat, byp.VariantLat)
	}
	if inst.BaselineKIOPS < inst.VariantKIOPS {
		t.Errorf("3 instances (%.1f kIOPS) below 1 instance (%.1f)",
			inst.BaselineKIOPS, inst.VariantKIOPS)
	}
	if !strings.Contains(sq.Table().String(), "Ablation") {
		t.Fatal("ablation table broken")
	}
}

func TestDFXAblation(t *testing.T) {
	res, err := DFX()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs != 3 {
		t.Fatalf("reconfigs = %d, want 3", res.Reconfigs)
	}
	for rm, d := range res.SwapTimes {
		if d <= 0 || d >= sim.Second {
			t.Errorf("RM %s swap time %v out of range", rm, d)
		}
		if d*10 >= res.FullReloadTime {
			t.Errorf("RM %s swap %v not ≪ full reload %v", rm, d, res.FullReloadTime)
		}
	}
	if !strings.Contains(res.Table().String(), "keeps serving") {
		t.Fatal("DFX table broken")
	}
	_ = fpga.MCAPBytesPerSec
}

func TestBucketQuality(t *testing.T) {
	rows, err := BucketQuality()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byAlg := map[string]BucketQualityRow{}
	for _, r := range rows {
		byAlg[r.Alg.String()] = r
		if r.Spread < 1.0 || r.Spread > 1.5 {
			t.Errorf("%v: spread %.3f out of balance", r.Alg, r.Spread)
		}
		if r.SelectNs <= 0 {
			t.Errorf("%v: no select time", r.Alg)
		}
		if r.MoveOnLoss <= 0 || r.MoveOnLoss > 0.6 {
			t.Errorf("%v: move-on-loss %.3f implausible", r.Alg, r.MoveOnLoss)
		}
	}
	// straw2 moves near-minimally on both loss and add.
	s2 := byAlg["straw2"]
	if s2.MoveOnLoss > 0.22 { // ideal 12.5%
		t.Errorf("straw2 move-on-loss %.3f too high", s2.MoveOnLoss)
	}
	if s2.MoveOnAdd > 0.25 { // ideal ~11.8%
		t.Errorf("straw2 move-on-add %.3f too high", s2.MoveOnAdd)
	}
	// uniform reshuffles heavily on add — the reason the policy swaps away
	// from it when the cluster changes.
	if byAlg["uniform"].MoveOnAdd < 2*s2.MoveOnAdd {
		t.Errorf("uniform move-on-add %.3f not ≫ straw2 %.3f",
			byAlg["uniform"].MoveOnAdd, s2.MoveOnAdd)
	}
	if !strings.Contains(BucketQualityTable(rows).String(), "straw2") {
		t.Fatal("table broken")
	}
}

func TestRecoveryCycle(t *testing.T) {
	res, err := Recovery(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 || res.Bytes == 0 {
		t.Fatalf("no recovery work: %+v", res)
	}
	if !res.ScrubClean {
		t.Fatal("cluster inconsistent after recovery")
	}
	if res.Planned.MovedPGs == 0 {
		t.Fatal("plan predicted no movement")
	}
	if res.Elapsed <= 0 {
		t.Fatal("backfill consumed no time")
	}
	if !strings.Contains(res.Table().String(), "clean") {
		t.Fatal("table broken")
	}
}

func TestMTUAblation(t *testing.T) {
	rows := MTU()
	// The four rows REPORT.json holds: 180 cycles per segment at 260 MHz,
	// so the jumbo gain saturates near the payload ratio 8960/1460 (~6.1x).
	want := []MTURow{
		{Bytes: 4096, SegsStd: 3, SegsJumbo: 1, PipeStd: 2076, PipeJumbo: 692},
		{Bytes: 65536, SegsStd: 45, SegsJumbo: 8, PipeStd: 31153, PipeJumbo: 5538},
		{Bytes: 131072, SegsStd: 90, SegsJumbo: 15, PipeStd: 62307, PipeJumbo: 10384},
		{Bytes: 524288, SegsStd: 360, SegsJumbo: 59, PipeStd: 249230, PipeJumbo: 40846},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		w.JumboSpeedup = float64(w.PipeStd) / float64(w.PipeJumbo)
		if r != w {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
	if !strings.Contains(MTUTable(rows).String(), "jumbo") {
		t.Fatal("table broken")
	}
}
