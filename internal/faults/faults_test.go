package faults

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/lsvd"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
)

func TestBackoffWithinBounds(t *testing.T) {
	base := 50 * sim.Microsecond
	cap := 2 * sim.Millisecond
	rng := sim.NewRNG(7)
	for attempt := 0; attempt < 40; attempt++ {
		for i := 0; i < 200; i++ {
			d := Backoff(base, cap, attempt, rng)
			if d < base || d > cap {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base, cap)
			}
		}
	}
}

func TestBackoffReproduciblePerSeed(t *testing.T) {
	base := 10 * sim.Microsecond
	cap := sim.Millisecond
	for _, seed := range []uint64{1, 7, 42} {
		a, b := sim.NewRNG(seed), sim.NewRNG(seed)
		for attempt := 0; attempt < 16; attempt++ {
			da, db := Backoff(base, cap, attempt, a), Backoff(base, cap, attempt, b)
			if da != db {
				t.Fatalf("seed %d attempt %d: %v != %v", seed, attempt, da, db)
			}
		}
	}
}

func TestBackoffNilRNGIsUpperEdge(t *testing.T) {
	base := 10 * sim.Microsecond
	cap := 80 * sim.Microsecond
	want := []sim.Duration{base, 2 * base, 4 * base, cap, cap}
	for attempt, w := range want {
		if got := Backoff(base, cap, attempt, nil); got != w {
			t.Fatalf("attempt %d: got %v want %v", attempt, got, w)
		}
	}
}

func FuzzBackoff(f *testing.F) {
	f.Add(int64(10_000), int64(1_000_000), 3, uint64(1))
	f.Add(int64(0), int64(0), 0, uint64(0))
	f.Add(int64(1), int64(1<<62), 63, uint64(99))
	f.Add(int64(-5), int64(-9), 100, uint64(7))
	f.Fuzz(func(t *testing.T, base, cp int64, attempt int, seed uint64) {
		b, c := sim.Duration(base), sim.Duration(cp)
		rng := sim.NewRNG(seed)
		got := Backoff(b, c, attempt, rng)
		// Normalised bounds mirror the function's clamping.
		lo := b
		if lo < 0 {
			lo = 0
		}
		hi := c
		if hi < lo {
			hi = lo
		}
		if got < lo || got > hi {
			t.Fatalf("Backoff(%d, %d, %d) = %v outside [%v, %v]", base, cp, attempt, got, lo, hi)
		}
		// The jittered value never exceeds the deterministic upper edge.
		if edge := Backoff(b, c, attempt, nil); got > edge {
			t.Fatalf("jitter %v above nil-rng edge %v", got, edge)
		}
		// Same seed replays the same delay.
		if again := Backoff(b, c, attempt, sim.NewRNG(seed)); again != got {
			t.Fatalf("not reproducible: %v then %v", got, again)
		}
	})
}

// testCluster builds a minimal 2-node cluster plus a client host.
func testCluster(t *testing.T) (*sim.Engine, *rados.Cluster, *netsim.Host) {
	t.Helper()
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng, sim.Microsecond)
	cl, err := rados.NewCluster(eng, fab, rados.ClusterConfig{
		Nodes: 2, OSDsPerNode: 4,
		NICBitsPerSec: 10e9,
		NodeStack:     netsim.SoftwareStack,
		Profile:       rados.DefaultOSDProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := fab.AddHost("client", 10e9, netsim.SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, client
}

func scheduleString(evs []Event) string {
	s := ""
	for _, e := range evs {
		s += e.String() + "\n"
	}
	return s
}

func TestScenarioScheduleDeterministic(t *testing.T) {
	sc := Scenario{
		Name:          "mixed",
		Horizon:       200 * sim.Millisecond,
		CrashMTBF:     40 * sim.Millisecond,
		CrashDowntime: 10 * sim.Millisecond,
		SlowMTBF:      60 * sim.Millisecond,
		SlowFactor:    4,
		SlowFor:       20 * sim.Millisecond,
		FlapMTBF:      80 * sim.Millisecond,
		FlapFor:       5 * sim.Millisecond,
		PartitionAt:   100 * sim.Millisecond,
		PartitionFor:  15 * sim.Millisecond,
		LossRate:      0.01,
	}
	for _, seed := range []uint64{1, 7, 42} {
		_, cl1, _ := testCluster(t)
		_, cl2, _ := testCluster(t)
		a := Install(cl1.Eng, cl1, seed, sc)
		b := Install(cl2.Eng, cl2, seed, sc)
		sa, sb := scheduleString(a.Events()), scheduleString(b.Events())
		if sa != sb {
			t.Fatalf("seed %d: schedules differ:\n%s\nvs\n%s", seed, sa, sb)
		}
		if len(a.Events()) == 0 {
			t.Fatalf("seed %d: scenario expanded to empty schedule", seed)
		}
	}
	// Different seeds should (for this dense scenario) differ.
	_, cl1, _ := testCluster(t)
	_, cl2, _ := testCluster(t)
	a := Install(cl1.Eng, cl1, 1, sc)
	b := Install(cl2.Eng, cl2, 2, sc)
	if scheduleString(a.Events()) == scheduleString(b.Events()) {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestCrashFailsInFlightWithErrOSDDown(t *testing.T) {
	eng, cl, _ := testCluster(t)
	in := NewInjector(eng, cl, 1)
	osd := cl.OSDs[0]
	var got error
	fired := false
	osd.Submit(rados.OpWrite, "obj", 0, make([]byte, 4096), 0, func(r rados.Result) {
		fired = true
		got = r.Err
	})
	in.ScheduleCrash(sim.Microsecond, 0, 5*sim.Millisecond)
	eng.Run()
	if !fired {
		t.Fatal("in-flight op never completed after crash")
	}
	if !errors.Is(got, rados.ErrOSDDown) {
		t.Fatalf("want ErrOSDDown, got %v", got)
	}
	if !osd.Up() {
		t.Fatal("OSD did not restart after downtime")
	}
	st := in.Stats()
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v, want 1 crash / 1 restart", st)
	}
}

func TestLossDropsAreCountedOnNIC(t *testing.T) {
	eng, cl, client := testCluster(t)
	in := NewInjector(eng, cl, 1)
	in.SetLossRate(1.0) // drop everything
	arrived := 0
	for i := 0; i < 5; i++ {
		cl.Fabric.Send(client, cl.NodeHosts[0], 4096, func() { arrived++ })
	}
	eng.Run()
	if arrived != 0 {
		t.Fatalf("%d messages arrived through 100%% loss", arrived)
	}
	if d := client.NIC.Stats().Drops; d != 5 {
		t.Fatalf("NIC drops = %d, want 5", d)
	}
	if d := in.Stats().HookDrops; d != 5 {
		t.Fatalf("injector HookDrops = %d, want 5", d)
	}
}

func TestPartitionBlocksCrossTrafficThenHeals(t *testing.T) {
	eng, cl, client := testCluster(t)
	in := NewInjector(eng, cl, 1)
	in.SchedulePartition(0, 1, 10*sim.Millisecond)
	crossArrived, sameArrived := 0, 0
	eng.Schedule(sim.Millisecond, func() {
		cl.Fabric.Send(client, cl.NodeHosts[1], 1024, func() { crossArrived++ })
		cl.Fabric.Send(client, cl.NodeHosts[0], 1024, func() { sameArrived++ })
	})
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if crossArrived != 0 {
		t.Fatal("message crossed an active partition")
	}
	if sameArrived != 1 {
		t.Fatal("same-side message was dropped by the partition")
	}
	// After heal, cross traffic flows again.
	eng.Schedule(20*sim.Millisecond, func() {
		cl.Fabric.Send(client, cl.NodeHosts[1], 1024, func() { crossArrived++ })
	})
	eng.Run()
	if crossArrived != 1 {
		t.Fatal("message dropped after partition healed")
	}
}

func TestFlapDropsBothDirections(t *testing.T) {
	eng, cl, client := testCluster(t)
	in := NewInjector(eng, cl, 1)
	in.ScheduleFlap(0, 0, 5*sim.Millisecond)
	arrived := 0
	eng.Schedule(sim.Millisecond, func() {
		cl.Fabric.Send(client, cl.NodeHosts[0], 1024, func() { arrived++ })
		cl.Fabric.Send(cl.NodeHosts[0], client, 1024, func() { arrived++ })
	})
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if arrived != 0 {
		t.Fatalf("%d messages crossed a downed link", arrived)
	}
	eng.Schedule(10*sim.Millisecond, func() {
		cl.Fabric.Send(client, cl.NodeHosts[0], 1024, func() { arrived++ })
	})
	eng.Run()
	if arrived != 1 {
		t.Fatal("message dropped after flap healed")
	}
}

func TestSlowEpisodeRestoresHealthyTiming(t *testing.T) {
	eng, cl, _ := testCluster(t)
	in := NewInjector(eng, cl, 1)
	in.ScheduleSlow(0, 2, 8, 5*sim.Millisecond)
	osd := cl.OSDs[2]
	eng.RunUntil(sim.Time(sim.Millisecond))
	if f := osd.SlowFactor(); f != 8 {
		t.Fatalf("slow factor during episode = %g, want 8", f)
	}
	eng.Run()
	if f := osd.SlowFactor(); f != 1 {
		t.Fatalf("slow factor after episode = %g, want 1", f)
	}
}

// TestTenantSlowScopesToOneTenant drives two tenants through the same OSD
// across a tenant-scoped degradation window: the target tenant's ops slow
// by the factor while the bystander's timing is untouched, and healing
// restores the target.
func TestTenantSlowScopesToOneTenant(t *testing.T) {
	eng, cl, _ := testCluster(t)
	in := Install(eng, cl, 3, Scenario{
		Name:             "tenant-slow",
		Horizon:          20 * sim.Millisecond,
		TenantSlowAt:     sim.Millisecond,
		TenantSlowFor:    10 * sim.Millisecond,
		TenantSlowFactor: 16,
		TenantSlowTenant: 1,
	})
	if len(in.Events()) != 2 {
		t.Fatalf("schedule = %v, want slow-tenant + heal-tenant", in.Events())
	}

	osd := cl.OSDs[0]
	lat := map[string]sim.Duration{}
	measure := func(label string, tenant int, at sim.Duration) {
		eng.Schedule(at, func() {
			start := eng.Now()
			osd.SubmitOpts(rados.ReqOpts{Tenant: tenant}, rados.OpWrite,
				"obj-"+label, 0, make([]byte, 4096), 0, func(res rados.Result) {
					if res.Err != nil {
						t.Errorf("%s: %v", label, res.Err)
					}
					lat[label] = eng.Now().Sub(start)
				})
		})
	}
	measure("victim-during", 1, 2*sim.Millisecond)
	measure("bystander-during", 2, 2*sim.Millisecond)
	measure("victim-after", 1, 15*sim.Millisecond)
	eng.Run()

	if in.Stats().TenantSlowdowns != 1 {
		t.Fatalf("tenant slowdowns = %d, want 1", in.Stats().TenantSlowdowns)
	}
	if lat["victim-during"] < 8*lat["bystander-during"] {
		t.Errorf("victim %v not degraded vs bystander %v (want ~16x)",
			lat["victim-during"], lat["bystander-during"])
	}
	if lat["victim-after"] > 2*lat["bystander-during"] {
		t.Errorf("victim not healed: %v after window vs bystander %v",
			lat["victim-after"], lat["bystander-during"])
	}
}

func ExampleBackoff() {
	rng := sim.NewRNG(1)
	for attempt := 0; attempt < 4; attempt++ {
		d := Backoff(100*sim.Microsecond, sim.Millisecond, attempt, rng)
		fmt.Println(d >= 100*sim.Microsecond && d <= sim.Millisecond)
	}
	// Output:
	// true
	// true
	// true
	// true
}

// stubTier is a minimal lsvd backend for cache-crash event tests.
type stubTier struct{ eng *sim.Engine }

func (b *stubTier) ReadMiss(off int64, n int, done func(error)) {
	b.eng.Schedule(50*sim.Microsecond, func() { done(nil) })
}

func (b *stubTier) FlushExtent(off int64, n int, done func(error)) {
	b.eng.Schedule(50*sim.Microsecond, func() { done(nil) })
}

// TestCacheCrashEventCrashesAndRecovers drives a write stream across a
// scheduled cache power-fail and checks the injector records the pair,
// the cache replays, and no acknowledged write is lost.
func TestCacheCrashEventCrashesAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	cfg := lsvd.DefaultConfig()
	cfg.LogBytes = 1 << 20
	cfg.SegmentBytes = 64 << 10
	cfg.Verify = true
	cache, err := lsvd.New(eng, cfg, &stubTier{eng: eng})
	if err != nil {
		t.Fatal(err)
	}
	fab := netsim.NewFabric(eng, sim.Microsecond)
	cl, err := rados.NewCluster(eng, fab, rados.ClusterConfig{
		Nodes: 1, OSDsPerNode: 1, NICBitsPerSec: 10e9,
		NodeStack: netsim.SoftwareStack, Profile: rados.DefaultOSDProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(eng, cl, 1)
	in.ScheduleCacheCrash(300*sim.Microsecond, cache, 200*sim.Microsecond)

	acks := 0
	for i := 0; i < 100; i++ {
		off := int64(i%32) * 4096
		eng.Schedule(sim.Duration(i)*10*sim.Microsecond, func() {
			cache.Write(off, 4096, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
				acks++
			})
		})
	}
	eng.Run()

	if acks != 100 {
		t.Fatalf("acked %d/100 writes across the crash", acks)
	}
	st := in.Stats()
	if st.CacheCrashes != 1 || st.CacheRecoveries != 1 {
		t.Fatalf("injector stats crashes=%d recoveries=%d, want 1/1", st.CacheCrashes, st.CacheRecoveries)
	}
	cs := cache.Stats()
	if cs.Recoveries != 1 || cs.LostAcked != 0 {
		t.Fatalf("cache recoveries=%d lostAcked=%d, want 1/0", cs.Recoveries, cs.LostAcked)
	}
	evs := in.Events()
	if len(evs) != 2 || evs[0].Kind != CrashCache || evs[1].Kind != RecoverCache {
		t.Fatalf("schedule = %v, want crash-cache then recover-cache", evs)
	}
}
