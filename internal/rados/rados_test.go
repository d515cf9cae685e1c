package rados

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// writeObj and readObj wait on the client's callback API from a test.
func writeObj(eng *sim.Engine, cl *Client, pool *Pool, obj string, off int, data []byte) error {
	var err error
	eng.Wait(func(wake func()) {
		cl.WriteAsync(pool, obj, off, data, ReqOpts{}, func(e error) {
			err = e
			wake()
		})
	})
	return err
}

func readObj(eng *sim.Engine, cl *Client, pool *Pool, obj string, off, n int) ([]byte, error) {
	var data []byte
	var err error
	eng.Wait(func(wake func()) {
		cl.ReadAsync(pool, obj, off, n, ReqOpts{}, func(d []byte, e error) {
			data, err = d, e
			wake()
		})
	})
	return data, err
}

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster, *Client) {
	t.Helper()
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, 5*sim.Microsecond)
	cfg := DefaultClusterConfig()
	cfg.Profile.JitterFrac = 0 // determinism for latency assertions
	c, err := NewCluster(eng, fabric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(c, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, cl
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if err := s.Write("a", 4, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("a", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 0, 1, 2, 3, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read = %v, want %v", got, want)
	}
	if s.Size("a") != 7 || s.Size("b") != 0 || s.Objects() != 1 {
		t.Fatal("size/objects wrong")
	}
	if err := s.Write("a", -1, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	s.Delete("a")
	if s.Objects() != 0 {
		t.Fatal("delete failed")
	}
	if names := s.ObjectNames(); len(names) != 0 {
		t.Fatal("names after delete")
	}
}

func TestNullStore(t *testing.T) {
	s := NewNullStore()
	if err := s.Write("x", 100, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if s.Size("x") != 150 || s.Objects() != 1 {
		t.Fatal("null store extent wrong")
	}
	d, err := s.Read("x", 0, 10)
	if err != nil || len(d) != 10 {
		t.Fatal("null read wrong")
	}
	s.Delete("x")
	if s.Objects() != 0 {
		t.Fatal("delete failed")
	}
}

func TestOSDServiceTimeScales(t *testing.T) {
	eng := sim.NewEngine()
	prof := DefaultOSDProfile()
	prof.JitterFrac = 0
	o := NewOSD(eng, 0, prof, NewMemStore())
	small := o.serviceTime(OpRead, 4096, false)
	large := o.serviceTime(OpRead, 131072, false)
	if large <= small {
		t.Fatal("service time does not scale with size")
	}
	w := o.serviceTime(OpWrite, 4096, false)
	r := o.serviceTime(OpRead, 4096, false)
	if w <= r {
		t.Fatal("writes should be slower than reads")
	}
	if o.serviceTime(OpRead, 4096, true) <= r {
		t.Fatal("random reads should pay the locality penalty")
	}
	if o.serviceTime(OpWrite, 4096, true) <= w {
		t.Fatal("random writes should pay the locality penalty")
	}
}

func TestOSDLaneContention(t *testing.T) {
	eng := sim.NewEngine()
	prof := OSDProfile{ReadBase: 10 * sim.Microsecond, WriteBase: 10 * sim.Microsecond, Lanes: 1}
	o := NewOSD(eng, 0, prof, NewMemStore())
	var done []sim.Time
	for i := 0; i < 3; i++ {
		o.Submit(OpRead, "x", 0, nil, 16, func(Result) {
			done = append(done, eng.Now())
		})
	}
	eng.Run()
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	// Single lane: completions spaced ~10µs apart.
	if done[2].Sub(done[0]) < 19*sim.Microsecond {
		t.Fatalf("lane contention not serialized: %v", done)
	}
	if o.Served() != 3 {
		t.Fatal("stats wrong")
	}
}

func TestOSDDownFailsRequests(t *testing.T) {
	eng := sim.NewEngine()
	o := NewOSD(eng, 3, DefaultOSDProfile(), NewMemStore())
	o.SetUp(false)
	var got error
	o.Submit(OpRead, "x", 0, nil, 4, func(r Result) { got = r.Err })
	eng.Run()
	if got == nil || !strings.Contains(got.Error(), "down") {
		t.Fatalf("err = %v", got)
	}
}

func TestReplicatedWriteReadRoundTrip(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, err := c.CreateReplicatedPool("rbd", 3, 128)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello deliba-k replicated world")
	var readBack []byte
	if err := writeObj(eng, cl, pool, "obj1", 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	readBack, err = readObj(eng, cl, pool, "obj1", 0, len(payload))
	if err != nil {
		t.Errorf("read: %v", err)
	}
	eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Fatalf("read back %q", readBack)
	}
	// Three OSDs must hold the object.
	copies := 0
	for _, o := range c.OSDs {
		if o.Store.Size("obj1") > 0 {
			copies++
		}
	}
	if copies != 3 {
		t.Fatalf("object on %d OSDs, want 3", copies)
	}
}

func TestReplicatedDegradedWriteRead(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("rbd", 3, 64)
	acting, err := c.ActingSet(pool, c.PGOf(pool, "objX"))
	if err != nil {
		t.Fatal(err)
	}
	// Take the primary down: writes must still succeed on the remaining
	// replicas and reads must come from the new acting primary.
	c.OSDs[acting[0]].SetUp(false)
	payload := []byte("degraded path data")
	var readBack []byte
	if err := writeObj(eng, cl, pool, "objX", 0, payload); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	readBack, err = readObj(eng, cl, pool, "objX", 0, len(payload))
	if err != nil {
		t.Errorf("degraded read: %v", err)
	}
	eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Fatalf("read back %q", readBack)
	}
	if c.UpOSDs() != 31 {
		t.Fatalf("UpOSDs = %d", c.UpOSDs())
	}
}

func TestECWriteReadRoundTrip(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, err := c.CreateECPool("ecpool", 4, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var readBack []byte
	if err := writeObj(eng, cl, pool, "vol.0", 0, payload); err != nil {
		t.Fatalf("ec write: %v", err)
	}
	readBack, err = readObj(eng, cl, pool, "vol.0", 0, len(payload))
	if err != nil {
		t.Errorf("ec read: %v", err)
	}
	eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Fatal("EC round trip corrupted data")
	}
	// k+m shard objects must exist across OSDs.
	shards := 0
	for _, o := range c.OSDs {
		shards += o.Store.Objects()
	}
	if shards != 6 {
		t.Fatalf("stored %d shard objects, want 6", shards)
	}
}

func TestECDegradedReadReconstructs(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateECPool("ecpool", 4, 2, 64)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i ^ (i >> 3))
	}
	acting, err := c.ActingSet(pool, c.PGOf(pool, "vol.7"))
	if err != nil {
		t.Fatal(err)
	}
	var readBack []byte
	if err := writeObj(eng, cl, pool, "vol.7", 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Fail two data-shard OSDs after the write: the read must
	// reconstruct from the remaining 4 shards.
	c.OSDs[acting[0]].SetUp(false)
	c.OSDs[acting[1]].SetUp(false)
	readBack, err = readObj(eng, cl, pool, "vol.7", 0, len(payload))
	if err != nil {
		t.Errorf("degraded read: %v", err)
	}
	eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Fatal("degraded EC read returned wrong data")
	}
}

func TestECWriteFailsBelowK(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateECPool("ecpool", 4, 2, 64)
	acting, _ := c.ActingSet(pool, c.PGOf(pool, "volZ"))
	for _, o := range acting[:3] {
		c.OSDs[o].SetUp(false)
	}
	var gotErr error
	gotErr = writeObj(eng, cl, pool, "volZ", 0, make([]byte, 1024))
	eng.Run()
	if gotErr == nil {
		t.Fatal("EC write below k up shards succeeded")
	}
}

func TestActingSetStableAndCorrectWidth(t *testing.T) {
	_, c, _ := newTestCluster(t)
	rp, _ := c.CreateReplicatedPool("r3", 3, 256)
	ec, _ := c.CreateECPool("e42", 4, 2, 256)
	for pg := uint32(0); pg < 256; pg++ {
		a1, err := c.ActingSet(rp, pg)
		if err != nil || len(a1) != 3 {
			t.Fatalf("pg %d: replicated acting %v (%v)", pg, a1, err)
		}
		a2, err := c.ActingSet(ec, pg)
		if err != nil || len(a2) != 6 {
			t.Fatalf("pg %d: ec acting %v (%v)", pg, a2, err)
		}
		b1, _ := c.ActingSet(rp, pg)
		for i := range a1 {
			if a1[i] != b1[i] {
				t.Fatal("acting set unstable")
			}
		}
	}
}

func TestPoolManagement(t *testing.T) {
	_, c, _ := newTestCluster(t)
	if _, err := c.CreateReplicatedPool("p", 0, 8); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := c.CreateReplicatedPool("p", 3, 0); err == nil {
		t.Fatal("pgs 0 accepted")
	}
	p1, err := c.CreateReplicatedPool("p", 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateReplicatedPool("p", 3, 8); err == nil {
		t.Fatal("duplicate pool accepted")
	}
	if c.Pool("p") != p1 || c.Pool("nope") != nil {
		t.Fatal("pool lookup wrong")
	}
	if p1.Width() != 3 {
		t.Fatal("width wrong")
	}
	ec, err := c.CreateECPool("e", 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Width() != 6 {
		t.Fatal("ec width wrong")
	}
	if _, err := c.CreateECPool("e", 4, 2, 8); err == nil {
		t.Fatal("duplicate ec pool accepted")
	}
}

func TestWriteLatencyOrdering(t *testing.T) {
	// A 3-replica write must take longer than a 1-replica write, and a
	// 128 kB write longer than a 4 kB write.
	measure := func(size, replicas int) sim.Duration {
		eng, c, cl := newTestCluster(t)
		pool, _ := c.CreateReplicatedPool("p", replicas, 64)
		var lat sim.Duration
		start := eng.Now()
		if err := writeObj(eng, cl, pool, "o", 0, make([]byte, size)); err != nil {
			t.Errorf("write: %v", err)
		}
		lat = eng.Now().Sub(start)
		eng.Run()
		return lat
	}
	small1 := measure(4096, 1)
	small3 := measure(4096, 3)
	big3 := measure(131072, 3)
	if small3 <= small1 {
		t.Fatalf("3-replica (%v) not slower than 1-replica (%v)", small3, small1)
	}
	if big3 <= small3 {
		t.Fatalf("128kB (%v) not slower than 4kB (%v)", big3, small3)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, 0)
	if _, err := NewCluster(eng, fabric, ClusterConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestTimingECOpAllocs bounds the allocations of a warm non-functional
// erasure-coded write and read through the client. Their shard payloads
// and the read's result are views of Zeros, so what remains is the shard
// keys of the shards the op touches, six for the 4+2 write and four for
// the read, at two allocations each (ShardKey's buffer and its string).
func TestTimingECOpAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultClusterConfig()
	cfg.NewStore = func() ObjectStore { return NewNullStore() }
	c, err := NewCluster(eng, netsim.NewFabric(eng, 5*sim.Microsecond), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(c, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	cl.Functional = false
	pool, err := c.CreateECPool("ec", 4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 << 10
	onWrite := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	onRead := func(b []byte, err error) {
		if err != nil || len(b) != n {
			t.Fatalf("read %d bytes, err %v", len(b), err)
		}
	}
	op := func() {
		cl.WriteAsync(pool, "obj", 0, Zeros(n), ReqOpts{}, onWrite)
		eng.Run()
		cl.ReadAsync(pool, "obj", 0, n, ReqOpts{}, onRead)
		eng.Run()
	}
	op()
	if allocs := testing.AllocsPerRun(50, op); allocs > 20 {
		t.Fatalf("warm timing-mode EC write+read allocated %.1f/op, want <= 20 (the shard keys)", allocs)
	}
}
