package rados

import (
	"testing"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func newMonCluster(t *testing.T) (*sim.Engine, *Cluster, *Monitor) {
	t.Helper()
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, sim.Microsecond)
	cfg := DefaultClusterConfig()
	cfg.Profile.JitterFrac = 0
	c, err := NewCluster(eng, fabric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, NewMonitor(c)
}

func TestMonitorEpochsAndSubscriptions(t *testing.T) {
	eng, c, m := newMonCluster(t)
	if c.MapEpoch() != 1 || c.Monitor() != m {
		t.Fatal("initial state wrong")
	}
	var epochs []uint64
	m.Subscribe(func() { epochs = append(epochs, c.MapEpoch()) })
	if err := m.MarkOut(3); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := m.MarkOut(3); err != nil { // idempotent, no bump
		t.Fatal(err)
	}
	eng.Run()
	if err := m.MarkIn(3); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if c.MapEpoch() != 3 {
		t.Fatalf("epoch = %d, want 3", c.MapEpoch())
	}
	if len(epochs) != 2 || epochs[0] != 2 || epochs[1] != 3 {
		t.Fatalf("notifications = %v", epochs)
	}
	if err := m.MarkOut(99); err == nil {
		t.Fatal("bad osd accepted")
	}
}

func TestMarkOutRemapsPlacement(t *testing.T) {
	eng, c, m := newMonCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 2, 128)
	// Find a PG that uses osd 7.
	var pg uint32
	found := false
	for pg = 0; pg < 128; pg++ {
		acting, err := c.ActingSet(pool, pg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range acting {
			if o == 7 {
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no PG on osd.7")
	}
	m.MarkOut(7)
	eng.Run()
	acting, err := c.ActingSet(pool, pg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range acting {
		if o == 7 {
			t.Fatalf("osd.7 still in acting set %v after mark-out", acting)
		}
	}
	if len(acting) != 2 {
		t.Fatalf("degraded acting set %v", acting)
	}
}

func TestHeartbeatMarksOutAfterGrace(t *testing.T) {
	eng, c, m := newMonCluster(t)
	m.HeartbeatEvery = sim.Second
	m.Grace = 5 * sim.Second
	m.Start()
	// osd.4 dies at t=0.
	c.OSDs[4].SetUp(false)
	eng.RunUntil(sim.Time(3 * sim.Second))
	if m.Reweights()[4] == 0 {
		t.Fatal("marked out before grace expired")
	}
	eng.RunUntil(sim.Time(10 * sim.Second))
	if m.Reweights()[4] != 0 {
		t.Fatal("not marked out after grace")
	}
	if m.MarkedOut != 1 {
		t.Fatalf("MarkedOut = %d", m.MarkedOut)
	}
	// Recovery: OSD returns, monitor marks it back in.
	c.OSDs[4].SetUp(true)
	eng.RunUntil(sim.Time(15 * sim.Second))
	if m.Reweights()[4] != crush.WeightOne {
		t.Fatal("not marked back in after recovery")
	}
	m.Stop()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("after Stop: Pending = %d, want 0", eng.Pending())
	}
}

// TestMonitorStopCancelsHeartbeat: Stop takes effect at once, so a stopped
// monitor lets the engine drain, and a restart beats on its new schedule.
func TestMonitorStopCancelsHeartbeat(t *testing.T) {
	eng, c, m := newMonCluster(t)
	m.HeartbeatEvery = sim.Second
	m.Grace = 0
	m.Start()
	eng.RunUntil(sim.Time(3*sim.Second + sim.Second/2))
	m.Stop()
	if end := eng.Run(); end != sim.Time(3*sim.Second+sim.Second/2) {
		t.Fatalf("a stopped monitor kept the engine running until %v", end)
	}
	if eng.Pending() != 0 {
		t.Fatalf("after Stop: Pending = %d, want 0", eng.Pending())
	}
	// Restarted at 3.5 s, the heartbeat sees osd.3 down at its first beat
	// (4.5 s) and marks it out at the second (5.5 s).
	c.OSDs[3].SetUp(false)
	m.Start()
	eng.RunUntil(sim.Time(5 * sim.Second))
	if m.Reweights()[3] == 0 {
		t.Fatal("osd.3 marked out before the restarted heartbeat's second beat")
	}
	eng.RunUntil(sim.Time(6 * sim.Second))
	if m.Reweights()[3] != 0 {
		t.Fatal("restarted heartbeat did not mark osd.3 out")
	}
	m.Stop()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("after the second Stop: Pending = %d", eng.Pending())
	}
}

func TestPlanRebalanceSingleFailure(t *testing.T) {
	_, c, m := newMonCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 2, 256)
	before := m.Reweights()
	after := m.Reweights()
	after[9] = 0
	rep, err := c.PlanRebalance(pool, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPGs != 256 {
		t.Fatalf("total = %d", rep.TotalPGs)
	}
	// One of 32 OSDs holds ~2/32 of the shard slots; moved fraction should
	// be near 2*1/32 ≈ 6% of PGs, certainly under 25% and over 1%.
	if rep.MovedFrac < 0.01 || rep.MovedFrac > 0.25 {
		t.Fatalf("moved fraction = %.3f", rep.MovedFrac)
	}
	if rep.ShardMoves < rep.MovedPGs {
		t.Fatalf("shard moves %d < moved PGs %d", rep.ShardMoves, rep.MovedPGs)
	}
}

func TestPlanRebalanceNoChange(t *testing.T) {
	_, c, m := newMonCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 2, 64)
	rep, err := c.PlanRebalance(pool, m.Reweights(), m.Reweights())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MovedPGs != 0 || rep.ShardMoves != 0 {
		t.Fatalf("identical maps moved %d PGs", rep.MovedPGs)
	}
}

func TestDegradedWriteDuringMarkOutWindow(t *testing.T) {
	// Between an OSD dying and the monitor ejecting it, writes proceed
	// degraded on the remaining replicas; after ejection, placements avoid
	// it entirely. The full sequence must stay available.
	eng, c, m := newMonCluster(t)
	m.HeartbeatEvery = sim.Second
	m.Grace = 3 * sim.Second
	m.Start()
	cl, err := NewClient(c, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := c.CreateReplicatedPool("p", 2, 64)
	failures := 0
	writes := 0
	for i := 0; i < 40; i++ {
		obj := objName(i)
		if err := writeObj(eng, cl, pool, obj, 0, make([]byte, 4096)); err != nil {
			failures++
		}
		writes++
		if i == 10 {
			c.OSDs[5].SetUp(false) // die mid-run
		}
		eng.RunUntil(eng.Now().Add(500 * sim.Millisecond))
	}
	// The heartbeat beats until stopped, so bound the run instead of
	// draining the engine.
	eng.RunUntil(sim.Time(30 * sim.Second))
	m.Stop()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("after Stop: Pending = %d, want 0", eng.Pending())
	}
	if writes != 40 {
		t.Fatalf("writes = %d", writes)
	}
	if failures != 0 {
		t.Fatalf("%d writes failed across the failure window", failures)
	}
	if m.Reweights()[5] != 0 {
		t.Fatal("osd.5 was never ejected")
	}
}

func objName(i int) string {
	return "obj-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}
