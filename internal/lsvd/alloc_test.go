package lsvd

import (
	"testing"

	"repro/internal/sim"
)

// TestReadHitZeroAllocs pins the cache-hit read path at zero heap
// allocations per op: coverage walk, pooled readOp, device booking and
// completion must all reuse steady-state storage.
func TestReadHitZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	be := &fakeBackend{eng: eng, missLat: 60 * sim.Microsecond, flushLat: 50 * sim.Microsecond}
	cfg := testConfig()
	cfg.Verify = false
	c, err := New(eng, cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(0, 64<<10, func(error) {})
	eng.Run()
	done := func(err error) {
		if err != nil {
			t.Errorf("hit read: %v", err)
		}
	}
	// Warm the readOp pool and grow the engine's event queue.
	for i := 0; i < 32; i++ {
		c.Read(int64(i)*512, 4096, done)
		eng.Run()
	}
	hits0 := c.Stats().Hits
	var off int64
	allocs := testing.AllocsPerRun(200, func() {
		c.Read(off, 4096, done)
		off = (off + 512) % (32 << 10)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("cache-hit read path allocates %.1f objects/op, want 0", allocs)
	}
	if hits := c.Stats().Hits - hits0; hits == 0 {
		t.Fatal("guard loop did not exercise the hit path")
	}
	if c.Stats().Misses != 0 {
		t.Fatalf("guard loop took %d misses; offsets must stay log-resident", c.Stats().Misses)
	}
}

// queueBackend completes miss fetches after a fixed latency in FIFO
// order through one prebound callback, so it allocates nothing itself.
type queueBackend struct {
	eng  *sim.Engine
	lat  sim.Duration
	q    fifo[func(error)]
	fire func()
}

func newQueueBackend(eng *sim.Engine, lat sim.Duration) *queueBackend {
	b := &queueBackend{eng: eng, lat: lat}
	b.fire = func() { b.q.pop()(nil) }
	return b
}

func (b *queueBackend) ReadMiss(off int64, n int, done func(error)) {
	b.q.push(done)
	b.eng.Schedule(b.lat, b.fire)
}

func (b *queueBackend) FlushExtent(off int64, n int, done func(error)) {
	b.ReadMiss(off, n, done)
}

// TestMissFillEvictZeroAllocs pins the warm miss path at zero heap
// allocations per op: the coverage walk, the in-flight fill record, the
// backend fetch, the fill's gap inserts into the read cache and the FIFO
// eviction it triggers must all reuse steady-state storage.
func TestMissFillEvictZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	be := newQueueBackend(eng, 60*sim.Microsecond)
	cfg := testConfig()
	cfg.Verify = false
	cfg.FlushBatch = 1 << 10 // keep the written blocks log-resident
	c, err := New(eng, cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	// Log-resident blocks in every window, so each fill inserts several
	// gaps around them.
	const windows = 64
	for w := int64(0); w < windows; w++ {
		c.Write(w<<16+8192, 4096, func(error) {})
		c.Write(w<<16+40960, 4096, func(error) {})
	}
	eng.Run()
	done := func(err error) {
		if err != nil {
			t.Errorf("miss read: %v", err)
		}
	}
	// Reads walk the windows in turn; the read cache holds four of the 64,
	// so every read misses, fills its window and evicts the oldest fill.
	var w int64
	read := func() {
		c.Read(w<<16, 4096, done)
		w = (w + 1) % windows
		eng.Run()
	}
	for i := 0; i < 4*windows; i++ {
		read()
	}
	s0 := c.Stats()
	allocs := testing.AllocsPerRun(200, read)
	s := c.Stats()
	if got := c.writeIdx.Bytes(); got != 2*windows*4096 {
		t.Fatalf("write log maps %d bytes, want the %d written", got, 2*windows*4096)
	}
	if allocs != 0 {
		t.Fatalf("miss/fill/evict path allocates %.1f objects/op, want 0", allocs)
	}
	if s.Hits != s0.Hits || s.Misses == s0.Misses || s.Fills-s0.Fills != s.Misses-s0.Misses || s.Evictions == s0.Evictions {
		t.Fatalf("guard loop took %d hits, %d misses, %d fills, %d evictions; want only misses, each filling and evicting",
			s.Hits-s0.Hits, s.Misses-s0.Misses, s.Fills-s0.Fills, s.Evictions-s0.Evictions)
	}
}
