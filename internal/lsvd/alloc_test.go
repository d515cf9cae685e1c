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
