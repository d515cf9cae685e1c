package core

import (
	"testing"

	"repro/internal/rados"
	"repro/internal/sim"
)

// TestSixStageLifecycleCounters drives one DK-HW write end to end and
// verifies every stage of the paper's Fig. 2 actually participated.
func TestSixStageLifecycleCounters(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := buildNamed(tb, "deliba-k-hw", false)
	if err != nil {
		t.Fatal(err)
	}
	dk := stack.(*pipelineStack)
	for i := 0; i < 8; i++ {
		if err := do(tb.Eng, stack, Write, Seq, int64(i)*4096, 4096, i%DKInstances); err != nil {
			t.Errorf("write %d: %v", i, err)
		}
	}
	tb.Eng.Run()
	stack.Close()

	// Stage ①: rings submitted and completed all ops without syscalls.
	var enters, submitted, completed uint64
	for _, r := range dk.Rings() {
		e, s, c, _, _ := r.Stats()
		enters += e
		submitted += s
		completed += c
	}
	if enters != 0 {
		t.Errorf("stage 1: SQPOLL made %d enter syscalls", enters)
	}
	if submitted != 8 || completed != 8 {
		t.Errorf("stage 1: submitted=%d completed=%d", submitted, completed)
	}
	// Stage ②: the DMQ bypass issued directly.
	st := dk.MQ().Stats()
	if st.Submitted != 8 || st.Completed != 8 {
		t.Errorf("stage 2: mq %+v", st)
	}
	if st.DirectHits != 8 || st.SchedPass != 0 {
		t.Errorf("stage 2: bypass not used: %+v", st)
	}
	// Stage ③: UIFD/QDMA carried every write.
	if _, w := dk.Driver().Stats(); w != 8 {
		t.Errorf("stage 3: UIFD writes = %d", w)
	}
	qsCompletions := 0
	for _, qs := range dk.Driver().QueueSets() {
		qsCompletions += qs.Completions()
	}
	if qsCompletions != 16 { // one H2C + one C2H per op
		t.Errorf("stage 3: QDMA completions = %d, want 16", qsCompletions)
	}
	// Stage ④: the CRUSH kernel ran once per op.
	if dk.Shell().Straw2.Ops() != 8 {
		t.Errorf("stage 4: accel ops = %d", dk.Shell().Straw2.Ops())
	}
	// Stage ⑥: OSDs served 2 replicas per op over the card NIC.
	served := uint64(0)
	for _, o := range tb.Cluster.OSDs {
		served += o.Served()
	}
	if served != 16 {
		t.Errorf("stage 6: OSD services = %d, want 16", served)
	}
	card := tb.Fabric.Host("fpga-cmac")
	if card == nil || card.NIC.Stats().TxMsgs == 0 {
		t.Error("stage 6: card NIC never transmitted")
	}
}

// TestDKHWAvailabilityThroughFailure runs DK-HW load while an OSD dies; the
// monitor ejects it, placements remap — and not a single I/O fails.
func TestDKHWAvailabilityThroughFailure(t *testing.T) {
	cfg := DefaultTestbedConfig()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon := rados.NewMonitor(tb.Cluster)
	mon.HeartbeatEvery = 500 * sim.Microsecond
	mon.Grace = 2 * sim.Millisecond
	stack, err := buildNamed(tb, "deliba-k-hw", false)
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()

	const ops = 150
	failures := 0
	for i := 0; i < ops; i++ {
		if err := do(tb.Eng, stack, Write, Rand, int64(i%512)*4096, 4096, i%DKInstances); err != nil {
			failures++
		}
		if i == 30 {
			tb.Cluster.OSDs[9].SetUp(false)
		}
		tb.Eng.RunUntil(tb.Eng.Now().Add(100 * sim.Microsecond))
	}
	tb.Eng.RunUntil(sim.Time(60 * sim.Millisecond))
	mon.Stop()
	tb.Eng.Run()
	stack.Close()

	if failures != 0 {
		t.Fatalf("%d I/Os failed across the failure window", failures)
	}
	if mon.Reweights()[9] != 0 {
		t.Fatal("monitor never ejected osd.9")
	}
	// And the dead OSD no longer receives traffic once ejected: write more
	// and check its counter stays put.
	before := tb.Cluster.OSDs[9].Served()
	stack2, err := buildNamed(tb, "deliba-2-sw", false) // fresh stack on same testbed
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		do(tb.Eng, stack2, Write, Rand, int64(i)*8192, 4096, 0)
	}
	stack2.Close()
	tb.Eng.Run()
	if got := tb.Cluster.OSDs[9].Served(); got != before {
		t.Fatalf("ejected OSD served %d new requests", got-before)
	}
}
