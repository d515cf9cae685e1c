package core

import (
	"testing"

	"repro/internal/rados"
)

// newFanoutHarness builds a testbed plus a client-side Fanout endpoint.
func newFanoutHarness(tb testing.TB) (*Testbed, *Fanout) {
	tb.Helper()
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	t, err := NewTestbed(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	host, err := t.Fabric.AddHost("fanout-client", 10e9, cfg.CM.HostStack)
	if err != nil {
		tb.Fatal(err)
	}
	return t, &Fanout{Cluster: t.Cluster, From: host}
}

// TestFanoutIssueZeroAlloc pins the steady-state allocation behaviour of the
// fan-out issue paths: after the op pools and the engine's event queue are
// warm, issuing a replicated write or primary read performs zero heap
// allocations. The warmup issues a deep batch WITHOUT draining so every pool
// reaches the concurrency the measured phase needs, then drains once to
// return everything to the freelists.
func TestFanoutIssueZeroAlloc(t *testing.T) {
	tb, f := newFanoutHarness(t)
	pool := tb.ReplPool
	pg := tb.Cluster.PGOf(pool, "obj")
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
	}
	const warm = 400
	for i := 0; i < warm; i++ {
		f.WriteReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
		f.ReadReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
	}
	tb.Eng.Run()
	if completed != 2*warm {
		t.Fatalf("warmup completed %d ops, want %d", completed, 2*warm)
	}

	writeAllocs := testing.AllocsPerRun(100, func() {
		f.WriteReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
	})
	tb.Eng.Run()
	if writeAllocs != 0 {
		t.Errorf("WriteReplicated issue path allocated %.1f/op, want 0", writeAllocs)
	}

	readAllocs := testing.AllocsPerRun(100, func() {
		f.ReadReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
	})
	tb.Eng.Run()
	if readAllocs != 0 {
		t.Errorf("ReadReplicated issue path allocated %.1f/op, want 0", readAllocs)
	}

	// Mixed phase: every op kind shares one op pool and one target pool,
	// so a replicated write issued right after reads and EC ops recycled
	// pops structs they last used and must still allocate nothing.
	ecDone := func(_ bool, err error) { done(err) }
	for i := 0; i < warm; i++ {
		f.ReadReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
		f.WriteEC(tb.ECPool, "obj", 0, 64<<10, rados.ReqOpts{}, done)
		f.ReadEC(tb.ECPool, "obj", 0, 64<<10, rados.ReqOpts{}, ecDone)
	}
	tb.Eng.Run()
	mixedAllocs := testing.AllocsPerRun(100, func() {
		f.WriteReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
	})
	tb.Eng.Run()
	if mixedAllocs != 0 {
		t.Errorf("WriteReplicated after reads and EC ops allocated %.1f/op, want 0", mixedAllocs)
	}
}

// TestFanoutECIssueAllocBound bounds the EC paths: the only permitted
// steady-state allocation is the one string an issue slices its shard keys
// from, whatever the number of shards (6 for a write in the default 4+2
// geometry, 4 for a healthy read).
func TestFanoutECIssueAllocBound(t *testing.T) {
	tb, f := newFanoutHarness(t)
	pool := tb.ECPool
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
	}
	const warm = 200
	for i := 0; i < warm; i++ {
		f.WriteEC(pool, "obj", 0, 64<<10, rados.ReqOpts{}, done)
	}
	tb.Eng.Run()
	if completed != warm {
		t.Fatalf("warmup completed %d ops, want %d", completed, warm)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.WriteEC(pool, "obj", 0, 64<<10, rados.ReqOpts{}, done)
	})
	tb.Eng.Run()
	if allocs > 1 {
		t.Errorf("WriteEC issue path allocated %.1f/op, want <= 1 (the shard keys' string)", allocs)
	}

	ecDone := func(_ bool, err error) { done(err) }
	for i := 0; i < warm; i++ {
		f.ReadEC(pool, "obj", 0, 64<<10, rados.ReqOpts{}, ecDone)
	}
	tb.Eng.Run()
	allocs = testing.AllocsPerRun(100, func() {
		f.ReadEC(pool, "obj", 0, 64<<10, rados.ReqOpts{}, ecDone)
	})
	tb.Eng.Run()
	if allocs > 1 {
		t.Errorf("ReadEC issue path allocated %.1f/op, want <= 1 (the shard keys' string)", allocs)
	}
}

// BenchmarkFanoutWriteReplicated measures one full replicated fan-out write
// at queue depth 1, including the simulated OSD round trip.
func BenchmarkFanoutWriteReplicated(b *testing.B) {
	tb, f := newFanoutHarness(b)
	pool := tb.ReplPool
	pg := tb.Cluster.PGOf(pool, "obj")
	done := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	f.WriteReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
	tb.Eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.WriteReplicated(pool, pg, "obj", 0, 4096, rados.ReqOpts{}, done)
		tb.Eng.Run()
	}
}
