package rados

import (
	"errors"
	"testing"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestOSDCrashDuringServiceFailsOnce: a crash while a request is in
// service fails it exactly once, at crash time, and the zombie service
// keeps the lane until its service time ends — a request queued behind it
// after the restart is granted the lane only then.
func TestOSDCrashDuringServiceFailsOnce(t *testing.T) {
	eng := sim.NewEngine()
	prof := OSDProfile{ReadBase: 10 * sim.Microsecond, WriteBase: 10 * sim.Microsecond, Lanes: 1}
	o := NewOSD(eng, 0, prof, NewMemStore())
	var calls int
	var failedAt sim.Time
	var failErr error
	o.Submit(OpWrite, "x", 0, []byte("abcd"), 0, func(r Result) {
		calls++
		failedAt, failErr = eng.Now(), r.Err
	})
	var laneHeld bool
	var nextDone sim.Time
	eng.Schedule(4*sim.Microsecond, func() {
		o.SetUp(false)
		laneHeld = o.lanes.InUse() == 1
		o.SetUp(true)
		o.Submit(OpRead, "y", 0, nil, 4, func(Result) { nextDone = eng.Now() })
	})
	eng.Run()
	if calls != 1 {
		t.Fatalf("crashed request completed %d times, want exactly once", calls)
	}
	if !errors.Is(failErr, ErrOSDDown) || failedAt != sim.Time(4*sim.Microsecond) {
		t.Fatalf("crashed request: err %v at %v, want ErrOSDDown at 4µs", failErr, failedAt)
	}
	if !laneHeld {
		t.Fatal("crash released the lane before the zombie service ended")
	}
	// The zombie frees the lane at 10µs; the next request then serves 10µs.
	if nextDone != sim.Time(20*sim.Microsecond) {
		t.Fatalf("request behind the zombie finished at %v, want 20µs", nextDone)
	}
	if o.Served() != 1 || o.InFlight() != 0 || o.lanes.InUse() != 0 {
		t.Fatalf("served %d inflight %d lanes %d, want 1/0/0", o.Served(), o.InFlight(), o.lanes.InUse())
	}
}

// TestOSDRecyclesOps: steady-state OSD service reuses its op structs, so a
// request costs no allocation beyond the caller's own callback.
func TestOSDRecyclesOps(t *testing.T) {
	eng := sim.NewEngine()
	o := NewOSD(eng, 0, DefaultOSDProfile(), NewNullStore())
	done := func(Result) {}
	o.Submit(OpWrite, "x", 0, make([]byte, 4096), 0, done)
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		o.SubmitOpts(ReqOpts{Random: true}, OpRead, "x", 0, nil, 4096, done)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("OSD request allocated %.1f/op, want 0", allocs)
	}
}

// newSplitCluster builds a split-domain deployment: a client host domain on
// shard 0 and one OSD node domain on shard 1.
func newSplitCluster(t *testing.T, osds int) (*sim.Engine, *Cluster, *Client) {
	t.Helper()
	const lookahead = 5 * sim.Microsecond
	group := sim.NewShards(2, lookahead)
	hostDom, heng := group.AddDomainAt("host", 0)
	osdDom, oeng := group.AddDomainAt("osd-node0", 1)
	fabric := netsim.NewFabric(heng, lookahead)
	fabric.Shard(group, hostDom)
	cfg := DefaultClusterConfig()
	cfg.Nodes, cfg.OSDsPerNode = 1, osds
	cfg.NodeEngines = []*sim.Engine{oeng}
	c, err := NewCluster(oeng, fabric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric.PlaceHost(c.NodeHosts[0], osdDom, oeng)
	cl, err := NewClient(c, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	cl.Split, cl.Eng = true, heng
	return heng, c, cl
}

// TestSplitWriteKeepsMemoIntact: the split-domain write walks the acting
// set it shares with the client's placement memo without compacting it in
// place. An indep rule wider than the cluster leaves ItemNone holes, which
// the write skips while the memoised slice keeps them.
func TestSplitWriteKeepsMemoIntact(t *testing.T) {
	eng, c, cl := newSplitCluster(t, 2)
	pool, err := c.CreateReplicatedPool("rbd", 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	pool.rule = c.Map.Rule("ec_osd")
	const obj = "obj"
	acting, err := cl.splitActing(pool, obj)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int(nil), acting...)
	holes := 0
	for _, o := range before {
		if o == crush.ItemNone {
			holes++
		}
	}
	if holes == 0 {
		t.Fatalf("acting set %v has no ItemNone hole to skip", before)
	}
	// A sharded engine cannot stop mid-window for Wait: run the write as an
	// event and drain.
	werr := errors.New("write never completed")
	eng.Schedule(0, func() {
		cl.WriteAsync(pool, obj, 0, []byte("data"), ReqOpts{}, func(e error) { werr = e })
	})
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	if !equalInts(acting, before) {
		t.Fatalf("write rewrote the shared acting set: %v, was %v", acting, before)
	}
	again, err := cl.splitActing(pool, obj)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &acting[0] || cl.place.Hits != 2 || cl.place.Misses != 1 {
		t.Fatalf("memo not reused: hits %d misses %d", cl.place.Hits, cl.place.Misses)
	}
	served := uint64(0)
	for _, o := range c.OSDs {
		served += o.Served()
	}
	if want := uint64(len(before) - holes); served != want {
		t.Fatalf("write served by %d OSDs, want %d placed members", served, want)
	}
}

// TestSplitMemoFollowsMarkOut: the split client's memo follows the
// monitor's in/out edits, so its answers always equal ActingSet's.
func TestSplitMemoFollowsMarkOut(t *testing.T) {
	_, c, cl := newSplitCluster(t, 8)
	mon := NewMonitor(c)
	pool, err := c.CreateReplicatedPool("rbd", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]string, 64)
	for i := range objs {
		objs[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	check := func() [][]int {
		t.Helper()
		var snap [][]int
		for _, obj := range objs {
			got, err := cl.splitActing(pool, obj)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.ActingSet(pool, c.PGOf(pool, obj))
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, want) {
				t.Fatalf("%s: split memo %v, ActingSet %v", obj, got, want)
			}
			snap = append(snap, append([]int(nil), got...))
		}
		return snap
	}
	before := check()
	if err := mon.MarkOut(0); err != nil {
		t.Fatal(err)
	}
	after := check()
	moved := 0
	for i := range before {
		if !equalInts(before[i], after[i]) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("marking osd.0 out moved no PG: the edit did not reach the memo")
	}
}
