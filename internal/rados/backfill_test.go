package rados

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// failAndRecover writes data, marks an OSD out, backfills, and returns the
// cluster plus the failed OSD for assertions.
func TestBackfillRestoresRedundancy(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	mon := NewMonitor(c)
	pool, _ := c.CreateReplicatedPool("p", 2, 64)
	const objects = 24
	payloads := map[string][]byte{}

	var rep BackfillReport
	var failed int
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("obj%03d", i)
		data := bytes.Repeat([]byte{byte(i)}, 2048+i)
		payloads[name] = data
		if err := writeObj(eng, cl, pool, name, 0, data); err != nil {
			t.Errorf("write %s: %v", name, err)
		}
	}
	before := mon.Reweights()
	// Fail an OSD that certainly holds data.
	for osd := 0; osd < 32; osd++ {
		if c.OSDs[osd].Store.Objects() > 0 {
			failed = osd
			break
		}
	}
	c.OSDs[failed].SetUp(false)
	mon.MarkOut(failed)
	after := mon.Reweights()

	var err error
	rep, err = backfill(eng, NewBackfiller(c), pool, before, after)
	if err != nil {
		t.Error(err)
	}
	eng.Run()

	if rep.ObjectsMoved == 0 || rep.BytesMoved == 0 {
		t.Fatalf("nothing moved: %+v", rep)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("backfill was free")
	}
	if rep.Degraded != 0 {
		t.Fatalf("degraded objects: %d", rep.Degraded)
	}

	// Every object must now have 2 live replicas on its NEW acting set,
	// with correct bytes.
	for name, want := range payloads {
		acting, err := c.ActingSet(pool, c.PGOf(pool, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range acting {
			if o == failed {
				t.Fatalf("%s still mapped to failed osd", name)
			}
			ms := c.OSDs[o].Store.(*MemStore)
			got, _ := ms.Read(name, 0, ms.Size(name))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s on osd.%d wrong after backfill", name, o)
			}
		}
	}
}

func TestBackfillECShards(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	mon := NewMonitor(c)
	pool, _ := c.CreateECPool("e", 4, 2, 64)
	payload := make([]byte, 16384)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var rep BackfillReport
	var failed int
	for i := 0; i < 6; i++ {
		if err := writeObj(eng, cl, pool, fmt.Sprintf("s%d", i), 0, payload); err != nil {
			t.Errorf("write: %v", err)
		}
	}
	before := mon.Reweights()
	acting, _ := c.ActingSet(pool, c.PGOf(pool, "s0"))
	failed = acting[1]
	c.OSDs[failed].SetUp(false)
	mon.MarkOut(failed)
	var err error
	rep, err = backfill(eng, NewBackfiller(c), pool, before, mon.Reweights())
	if err != nil {
		t.Error(err)
	}
	// Restore the OSD's liveness (weight stays 0) so reads do not
	// detour; then verify the stripes read back intact from the new
	// layout.
	for i := 0; i < 6; i++ {
		got, err := readObj(eng, cl, pool, fmt.Sprintf("s%d", i), 0, len(payload))
		if err != nil {
			t.Errorf("read s%d: %v", i, err)
			continue
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("s%d corrupted after EC backfill", i)
		}
	}
	eng.Run()
	if rep.ObjectsMoved == 0 {
		t.Fatalf("no shards moved: %+v", rep)
	}
}

func TestBackfillNoChangeIsNoop(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	mon := NewMonitor(c)
	pool, _ := c.CreateReplicatedPool("p", 2, 32)
	var rep BackfillReport
	writeObj(eng, cl, pool, "x", 0, []byte("data"))
	var err error
	rep, err = backfill(eng, NewBackfiller(c), pool, mon.Reweights(), mon.Reweights())
	if err != nil {
		t.Error(err)
	}
	eng.Run()
	if rep.ObjectsMoved != 0 || rep.BytesMoved != 0 {
		t.Fatalf("no-op backfill moved data: %+v", rep)
	}
}

func TestBackfillThrottleScalesTime(t *testing.T) {
	run := func(streams int) sim.Duration {
		eng, c, cl := newTestCluster(t)
		mon := NewMonitor(c)
		// A single PG concentrates every object on one acting set, so the
		// failure moves all 16 objects and the throttle is visible.
		pool, _ := c.CreateReplicatedPool("p", 2, 1)
		var rep BackfillReport
		for i := 0; i < 16; i++ {
			writeObj(eng, cl, pool, fmt.Sprintf("o%02d", i), 0, make([]byte, 64*1024))
		}
		before := mon.Reweights()
		var failed int
		for osd := 0; osd < 32; osd++ {
			if c.OSDs[osd].Store.Objects() > 0 {
				failed = osd
				break
			}
		}
		c.OSDs[failed].SetUp(false)
		mon.MarkOut(failed)
		bf := NewBackfiller(c)
		bf.Streams = streams
		var err error
		rep, err = backfill(eng, bf, pool, before, mon.Reweights())
		if err != nil {
			t.Error(err)
		}
		eng.Run()
		if rep.ObjectsMoved == 0 {
			t.Skip("failed OSD held no data in this layout")
		}
		return rep.Elapsed
	}
	narrow := run(1)
	wide := run(8)
	if narrow <= wide {
		t.Fatalf("1 stream (%v) not slower than 8 streams (%v)", narrow, wide)
	}
	_ = crush.WeightOne
}

// TestBackfillAnyStore: the backfiller finds, sizes and copies objects
// through the ObjectStore interface, so the same writes backfill the same
// objects and bytes, in the same virtual time, on a NullStore cluster as
// on a MemStore one, and leave every object whole on its new acting set.
func TestBackfillAnyStore(t *testing.T) {
	run := func(newStore func() ObjectStore) BackfillReport {
		eng := sim.NewEngine()
		cfg := DefaultClusterConfig()
		cfg.Profile.JitterFrac = 0
		cfg.NewStore = newStore
		c, err := NewCluster(eng, netsim.NewFabric(eng, 5*sim.Microsecond), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewClient(c, "client", 10e9, netsim.SoftwareStack)
		if err != nil {
			t.Fatal(err)
		}
		mon := NewMonitor(c)
		pool, _ := c.CreateReplicatedPool("p", 2, 64)
		const objects = 40
		for i := 0; i < objects; i++ {
			if err := writeObj(eng, cl, pool, fmt.Sprintf("obj%03d", i), 0, make([]byte, 4096+i)); err != nil {
				t.Fatal(err)
			}
		}
		// Fail the OSD holding the most objects (the first on a tie).
		failed := 0
		for id, o := range c.OSDs {
			if o.Store.Objects() > c.OSDs[failed].Store.Objects() {
				failed = id
			}
		}
		before := mon.Reweights()
		c.OSDs[failed].SetUp(false)
		mon.MarkOut(failed)
		rep, err := backfill(eng, NewBackfiller(c), pool, before, mon.Reweights())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < objects; i++ {
			name := fmt.Sprintf("obj%03d", i)
			acting, _ := c.ActingSet(pool, c.PGOf(pool, name))
			for _, o := range acting {
				if got := c.OSDs[o].Store.Size(name); got != 4096+i {
					t.Fatalf("%s on osd.%d has %d bytes after backfill, want %d", name, o, got, 4096+i)
				}
			}
		}
		return rep
	}
	mem := run(func() ObjectStore { return NewMemStore() })
	null := run(func() ObjectStore { return NewNullStore() })
	if mem.ObjectsMoved == 0 {
		t.Fatalf("nothing moved on the MemStore cluster: %+v", mem)
	}
	if null != mem {
		t.Fatalf("NullStore backfill %+v != MemStore backfill %+v", null, mem)
	}
}
