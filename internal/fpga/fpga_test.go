package fpga

import (
	"math"
	"testing"

	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/sim"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{LUTs: 10, Registers: 20, BRAM: 3, URAM: 1, DSP: 2}
	b := Resources{LUTs: 5, Registers: 10, BRAM: 1, URAM: 1, DSP: 0}
	sum := a.Add(b)
	if sum.LUTs != 15 || sum.Registers != 30 || sum.BRAM != 4 || sum.URAM != 2 || sum.DSP != 2 {
		t.Fatalf("Add = %v", sum)
	}
	if !b.FitsIn(a) {
		t.Fatal("b should fit in a")
	}
	if a.FitsIn(b) {
		t.Fatal("a should not fit in b")
	}
	u := a.Utilization(Resources{LUTs: 100, Registers: 100, BRAM: 100, URAM: 100, DSP: 100})
	if u["LUT"] != 10 || u["FF"] != 20 {
		t.Fatalf("Utilization = %v", u)
	}
}

func TestU280Inventory(t *testing.T) {
	dev := NewU280()
	if len(dev.SLRs) != 3 {
		t.Fatal("U280 must have 3 SLRs")
	}
	total := dev.TotalResources()
	if total.LUTs != 1_300_000 {
		t.Fatalf("total LUTs = %d, want 1.3M", total.LUTs)
	}
	if total.Registers != 2_720_000 {
		t.Fatalf("total registers = %d, want 2.72M", total.Registers)
	}
	if total.BRAM != 2016 || total.URAM != 960 || total.DSP != 9024 {
		t.Fatalf("total = %v", total)
	}
	// SLR0 matches the paper's stated inventory.
	s0 := dev.SLRs[0].Total
	if s0.LUTs != 355_000 || s0.Registers != 725_000 || s0.BRAM != 490 ||
		s0.URAM != 320 || s0.DSP != 2733 {
		t.Fatalf("SLR0 = %v", s0)
	}
}

func TestDevicePlacement(t *testing.T) {
	dev := NewU280()
	r := Resources{LUTs: 1000}
	if err := dev.Place("k1", 0, r); err != nil {
		t.Fatal(err)
	}
	if err := dev.Place("k1", 1, r); err == nil {
		t.Fatal("duplicate placement accepted")
	}
	if !dev.Placed("k1") || dev.PlacedIn("k1") != 0 {
		t.Fatal("placement lookup wrong")
	}
	if err := dev.Place("huge", 0, Resources{LUTs: 10_000_000}); err == nil {
		t.Fatal("oversized placement accepted")
	}
	if err := dev.Remove("k1"); err != nil {
		t.Fatal(err)
	}
	if dev.Placed("k1") || dev.PlacedIn("k1") != -1 {
		t.Fatal("remove did not clear")
	}
	if err := dev.Remove("k1"); err == nil {
		t.Fatal("double remove accepted")
	}
	if dev.SLRs[0].Used().LUTs != 0 {
		t.Fatal("resources leaked")
	}
	if err := dev.Place("x", 9, r); err == nil {
		t.Fatal("bad SLR accepted")
	}
}

func TestKernelTableMatchesPaper(t *testing.T) {
	// Spot checks against Table I.
	cases := []struct {
		id     KernelID
		sw     sim.Duration
		cycles int
		hw     sim.Duration
		sloc   int
	}{
		{KStraw, 55 * sim.Microsecond, 105, 49 * sim.Microsecond, 880},
		{KStraw2, 48 * sim.Microsecond, 155, 51 * sim.Microsecond, 806},
		{KList, 35 * sim.Microsecond, 40, 56 * sim.Microsecond, 770},
		{KTree, 22 * sim.Microsecond, 130, 31 * sim.Microsecond, 780},
		{KUniform, 9 * sim.Microsecond, 50, 19 * sim.Microsecond, 745},
		{KRSEncoder, 65 * sim.Microsecond, 150, 85 * sim.Microsecond, 960},
	}
	for _, c := range cases {
		spec := KernelTable[c.id]
		if spec.SWExecTime != c.sw || spec.RTLCyclesMax != c.cycles ||
			spec.HWExecTime != c.hw || spec.SLOCsVerilog != c.sloc {
			t.Errorf("%v: spec %+v does not match paper row", c.id, spec)
		}
		// Pipeline latency at 235 MHz must be sub-microsecond and in the
		// same range as the Vivado estimate.
		pl := spec.PipelineLatency()
		if pl <= 0 || pl > sim.Microsecond {
			t.Errorf("%v: pipeline latency %v out of range", c.id, pl)
		}
	}
}

func TestAccelFSMSerialization(t *testing.T) {
	eng := sim.NewEngine()
	m, _, err := crush.FlatCluster(8, crush.Straw2Alg)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewCrushAccel(eng, KStraw2, m, m.Rule("flat"))
	var finishes []sim.Time
	for i := 0; i < 3; i++ {
		acc.Select(uint32(i), 0, 1, func(osds []int, err error) {
			if err != nil || len(osds) != 1 {
				t.Errorf("select: %v %v", osds, err)
			}
			finishes = append(finishes, eng.Now())
		})
	}
	eng.Run()
	if len(finishes) != 3 {
		t.Fatalf("selects = %d", len(finishes))
	}
	lat := KernelTable[KStraw2].PipelineLatency()
	for i := 1; i < 3; i++ {
		if finishes[i].Sub(finishes[i-1]) < lat {
			t.Fatal("FSM overlapped operations")
		}
	}
	if acc.Ops() != 3 || acc.BusyTime() < 3*lat {
		t.Fatal("stats wrong")
	}
}

func TestCrushAccelMatchesSoftware(t *testing.T) {
	eng := sim.NewEngine()
	m, _, _ := crush.BuildCluster(crush.ClusterSpec{Hosts: 4, OSDsPerHost: 4})
	rule := m.Rule("replicated_rule")
	acc := NewCrushAccel(eng, KStraw2, m, rule)
	var hwResult []int
	var osds []int
	var err error
	eng.Wait(func(wake func()) {
		acc.Select(1234, 0, 3, func(o []int, e error) {
			osds, err = o, e
			wake()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	hwResult = osds
	eng.Run()
	swResult, err := m.Select(rule, crush.Hash2(1234, 0), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hwResult) != len(swResult) {
		t.Fatalf("hw %v vs sw %v", hwResult, swResult)
	}
	for i := range hwResult {
		if hwResult[i] != swResult[i] {
			t.Fatalf("hw %v vs sw %v", hwResult, swResult)
		}
	}
}

func TestRSAccelEncodes(t *testing.T) {
	eng := sim.NewEngine()
	code, _ := erasure.New(4, 2)
	acc := NewRSAccel(eng, code)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	shards := code.Split(data)
	var encErr error
	eng.Wait(func(wake func()) {
		acc.Encode(len(data), shards, func(err error) {
			encErr = err
			wake()
		})
	})
	eng.Run()
	if encErr != nil {
		t.Fatal(encErr)
	}
	ok, err := code.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("verify = %v, %v", ok, err)
	}
	// Encode time scales with payload.
	if acc.EncodeTime(131072) <= acc.EncodeTime(4096) {
		t.Fatal("EncodeTime does not scale")
	}
}

func TestRSAccelTimingOnlyMode(t *testing.T) {
	eng := sim.NewEngine()
	code, _ := erasure.New(4, 2)
	acc := NewRSAccel(eng, code)
	done := false
	acc.Encode(4096, nil, func(err error) {
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	eng.Run()
	if !done || acc.Ops() != 1 {
		t.Fatal("timing-only encode failed")
	}
}

func TestHWBeatsSWForCrushKernels(t *testing.T) {
	// The premise of Table I: kernel pipeline latency ≪ software time.
	for _, id := range []KernelID{KStraw, KStraw2, KList, KTree, KUniform, KRSEncoder} {
		spec := KernelTable[id]
		if spec.PipelineLatency() >= spec.SWExecTime {
			t.Errorf("%v: pipeline %v not faster than SW %v", id, spec.PipelineLatency(), spec.SWExecTime)
		}
	}
}

func newShellT(t *testing.T, staticOnly bool) (*sim.Engine, *Shell) {
	t.Helper()
	eng := sim.NewEngine()
	m, _, err := crush.BuildCluster(crush.ClusterSpec{Hosts: 2, OSDsPerHost: 16})
	if err != nil {
		t.Fatal(err)
	}
	code, _ := erasure.New(4, 2)
	s, err := BuildShell(eng, ShellConfig{
		Map:        m,
		Rule:       m.Rule("replicated_rule"),
		Code:       code,
		StaticOnly: staticOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

func TestShellDFXLifecycle(t *testing.T) {
	eng, s := newShellT(t, false)
	if s.RP == nil || s.RP.Active() != nil {
		t.Fatal("RP should start empty")
	}
	if _, err := s.DynAccel(KList); err == nil {
		t.Fatal("DynAccel before load succeeded")
	}
	if err := loadKernel(eng, s, KList); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DynAccel(KList); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DynAccel(KTree); err == nil {
		t.Fatal("wrong kernel available")
	}
	// Swap to tree.
	if err := loadKernel(eng, s, KTree); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DynAccel(KTree); err != nil {
		t.Fatal(err)
	}
	end := eng.Run()
	if s.RP.Reconfigs() != 2 {
		t.Fatalf("reconfigs = %d", s.RP.Reconfigs())
	}
	// Two MCAP loads of a multi-MB partial bitstream take milliseconds.
	if sim.Duration(end) < sim.Millisecond {
		t.Fatalf("reconfig too fast: %v", end)
	}
}

// loadKernel waits on LoadDynKernel.
func loadKernel(eng *sim.Engine, s *Shell, id KernelID) error {
	var err error
	eng.Wait(func(wake func()) {
		s.LoadDynKernel(id, func(e error) {
			err = e
			wake()
		})
	})
	return err
}

func TestShellStaticBuildHasAllKernels(t *testing.T) {
	eng, s := newShellT(t, true)
	for _, id := range []KernelID{KUniform, KList, KTree} {
		if err := loadKernel(eng, s, id); err != nil {
			t.Errorf("static load %v: %v", id, err)
		}
		if _, err := s.DynAccel(id); err != nil {
			t.Errorf("static DynAccel %v: %v", id, err)
		}
	}
	eng.Run()
	if s.RP != nil {
		t.Fatal("static build should have no RP")
	}
}

func TestShellPowerMatchesPaper(t *testing.T) {
	_, static := newShellT(t, true)
	engD, dfx := newShellT(t, false)
	if got := static.Power(); math.Abs(got-195) > 0.1 {
		t.Fatalf("static full-load power = %.1f W, want 195", got)
	}
	// Load one RM, then measure.
	if err := loadKernel(engD, dfx, KUniform); err != nil {
		t.Error(err)
	}
	engD.Run()
	if got := dfx.Power(); math.Abs(got-170) > 0.1 {
		t.Fatalf("DFX full-load power = %.1f W, want 170", got)
	}
}

func TestPrVerify(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewU280()
	rp, err := NewRP(eng, dev, "test", 0, Resources{LUTs: 1000, Registers: 1000, BRAM: 10, URAM: 4, DSP: 4})
	if err != nil {
		t.Fatal(err)
	}
	rm := &RM{Name: "ok", Kernel: KUniform, Usage: Resources{LUTs: 500}}
	if err := rp.AddRM(rm); err != nil {
		t.Fatal(err)
	}
	if err := rp.AddRM(rm); err == nil {
		t.Fatal("duplicate RM accepted")
	}
	if err := rp.AddRM(&RM{Name: "big", Usage: Resources{LUTs: 2000}}); err == nil {
		t.Fatal("oversized RM accepted")
	}
	if err := PrVerify([]Configuration{{RP: rp, RM: "ok"}}); err != nil {
		t.Fatal(err)
	}
	if err := PrVerify([]Configuration{{RP: rp, RM: "missing"}}); err == nil {
		t.Fatal("unknown RM verified")
	}
	if err := PrVerify([]Configuration{{RP: nil, RM: "ok"}}); err == nil {
		t.Fatal("nil RP verified")
	}
}

func TestReconfigureWhileReconfiguring(t *testing.T) {
	eng, s := newShellT(t, false)
	var second error
	s.RP.Reconfigure("list", func(err error) {})
	s.RP.Reconfigure("tree", func(err error) { second = err })
	eng.Run()
	if second != ErrReconfiguring {
		t.Fatalf("overlapping reconfigure err = %v", second)
	}
	// Reloading the live RM is free.
	var at sim.Time
	s.RP.Reconfigure("list", func(err error) {
		if err != nil {
			t.Error(err)
		}
		at = eng.Now()
	})
	before := eng.Now()
	eng.Run()
	if at.Sub(before) != 0 {
		t.Fatalf("reloading live RM took %v", at.Sub(before))
	}
}

func TestConfigurationAnalysis(t *testing.T) {
	_, s := newShellT(t, false)
	rows := s.RP.ConfigurationAnalysis()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LoadTime <= 0 || r.BitBytes <= 0 {
			t.Fatalf("row %v missing load estimate", r.RM)
		}
		if r.UtilPct["LUT"] <= 0 {
			t.Fatalf("row %v missing utilization", r.RM)
		}
	}
	// Rows sorted by name.
	if rows[0].RM > rows[1].RM || rows[1].RM > rows[2].RM {
		t.Fatal("rows not sorted")
	}
}
