package lsvd

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// fakeBackend is a fixed-latency stand-in for the RADOS tier.
type fakeBackend struct {
	eng        *sim.Engine
	missLat    sim.Duration
	flushLat   sim.Duration
	missReads  int
	missBytes  int64
	flushOps   int
	flushBytes int64
	failFlush  bool
}

func (b *fakeBackend) ReadMiss(off int64, n int, done func(error)) {
	b.missReads++
	b.missBytes += int64(n)
	b.eng.Schedule(b.missLat, func() { done(nil) })
}

func (b *fakeBackend) FlushExtent(off int64, n int, done func(error)) {
	if b.failFlush {
		done(errors.New("backend refused flush"))
		return
	}
	b.eng.Schedule(b.flushLat, func() {
		b.flushOps++
		b.flushBytes += int64(n)
		done(nil)
	})
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.LogBytes = 1 << 20 // 16 segments
	cfg.SegmentBytes = 64 << 10
	cfg.ReadCacheBytes = 256 << 10
	cfg.Verify = true
	return cfg
}

func newTestCache(t *testing.T, mut func(*Config)) (*sim.Engine, *Cache, *fakeBackend) {
	t.Helper()
	eng := sim.NewEngine()
	be := &fakeBackend{eng: eng, missLat: 60 * sim.Microsecond, flushLat: 50 * sim.Microsecond}
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(eng, cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, be
}

func TestWriteAckThenReadHit(t *testing.T) {
	eng, c, be := newTestCache(t, nil)
	acked := false
	var ackAt sim.Time
	c.Write(4096, 4096, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		acked = true
		ackAt = eng.Now()
	})
	eng.Run()
	if !acked {
		t.Fatal("write never acknowledged")
	}
	if ackAt <= 0 {
		t.Fatal("ack should cost simulated time")
	}
	hit := false
	c.Read(4096, 4096, func(err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		hit = true
	})
	eng.Run()
	if !hit {
		t.Fatal("read never completed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0", s.Hits, s.Misses)
	}
	if be.missReads != 0 {
		t.Fatalf("log-resident read should not touch the backend (%d miss reads)", be.missReads)
	}
}

func TestMissFillsReadAround(t *testing.T) {
	eng, c, be := newTestCache(t, nil)
	done := 0
	c.Read(1<<20, 4096, func(err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		done++
	})
	eng.Run()
	if be.missReads != 1 {
		t.Fatalf("expected one backend miss read, got %d", be.missReads)
	}
	if be.missBytes != c.cfg.ReadAround {
		t.Fatalf("miss fetched %d bytes, want read-around %d", be.missBytes, c.cfg.ReadAround)
	}
	// Anything inside the filled window is now a local hit.
	c.Read(1<<20+32<<10, 8192, func(err error) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("completions = %d, want 2", done)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("hits=%d misses=%d fills=%d, want 1/1/1", s.Hits, s.Misses, s.Fills)
	}
}

func TestAdmitOnReuse(t *testing.T) {
	eng, c, be := newTestCache(t, func(cfg *Config) { cfg.AdmitOnReuse = true })
	done := 0
	// First touch: exact-byte fetch, no fill, no cache occupancy.
	c.Read(1<<20, 4096, func(err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		done++
	})
	eng.Run()
	if be.missBytes != 4096 {
		t.Fatalf("first-touch miss fetched %d bytes, want exact 4096", be.missBytes)
	}
	s := c.Stats()
	if s.Fills != 0 || s.AdmitBypassed != 1 || s.ReadCacheUsed != 0 {
		t.Fatalf("first touch: fills=%d bypassed=%d cached=%d, want 0/1/0",
			s.Fills, s.AdmitBypassed, s.ReadCacheUsed)
	}
	// Second miss in the same window: ghost hit promotes to a full
	// read-around fill.
	c.Read(1<<20+8192, 4096, func(err error) { done++ })
	eng.Run()
	s = c.Stats()
	if s.AdmitReuses != 1 || s.Fills != 1 {
		t.Fatalf("reuse: reuses=%d fills=%d, want 1/1", s.AdmitReuses, s.Fills)
	}
	if be.missBytes != 4096+c.cfg.ReadAround {
		t.Fatalf("reuse fetched %d total bytes, want %d", be.missBytes, 4096+c.cfg.ReadAround)
	}
	// The window is now resident: any byte of it hits locally.
	c.Read(1<<20+32<<10, 4096, func(err error) { done++ })
	eng.Run()
	if done != 3 || c.Stats().Hits != 1 {
		t.Fatalf("post-admit read: done=%d hits=%d, want 3/1", done, c.Stats().Hits)
	}
}

func TestAdmitGhostEviction(t *testing.T) {
	eng, c, _ := newTestCache(t, func(cfg *Config) {
		cfg.AdmitOnReuse = true
		cfg.GhostWindows = 2
	})
	ra := c.cfg.ReadAround
	// Touch three distinct windows: the FIFO ghost (capacity 2) forgets
	// the first.
	for w := int64(0); w < 3; w++ {
		c.Read(w*ra, 4096, func(error) {})
		eng.Run()
	}
	// Window 0 was evicted from the ghost, so this is a first touch again.
	c.Read(0, 4096, func(error) {})
	eng.Run()
	s := c.Stats()
	if s.AdmitBypassed != 4 || s.AdmitReuses != 0 || s.Fills != 0 {
		t.Fatalf("ghost eviction: bypassed=%d reuses=%d fills=%d, want 4/0/0",
			s.AdmitBypassed, s.AdmitReuses, s.Fills)
	}
	if len(c.ghost) != 2 || c.ghostQ.len() != 2 {
		t.Fatalf("ghost set size %d/%d, want 2/2", len(c.ghost), c.ghostQ.len())
	}
}

func TestMissCoalescing(t *testing.T) {
	eng, c, be := newTestCache(t, nil)
	// Four QD>1 reads inside one 64 KiB read-around window, all issued
	// before the backend fetch lands: one backend read, four completions.
	done := 0
	for i := 0; i < 4; i++ {
		c.Read(1<<20+int64(i)*4096, 4096, func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done++
		})
	}
	// A concurrent miss in a *different* window must not coalesce.
	c.Read(4<<20, 4096, func(err error) { done++ })
	eng.Run()
	if done != 5 {
		t.Fatalf("completions = %d, want 5", done)
	}
	if be.missReads != 2 {
		t.Fatalf("backend miss reads = %d, want 2 (one per window)", be.missReads)
	}
	s := c.Stats()
	if s.CoalescedFills != 3 {
		t.Fatalf("coalesced fills = %d, want 3", s.CoalescedFills)
	}
	if s.Fills != 2 {
		t.Fatalf("fills = %d, want 2", s.Fills)
	}
	// The window is filled exactly once and later reads hit locally.
	c.Read(1<<20+16<<10, 4096, func(err error) { done++ })
	eng.Run()
	if done != 6 || c.Stats().Hits != 1 {
		t.Fatalf("post-fill read: done=%d hits=%d, want 6/1", done, c.Stats().Hits)
	}
}

func TestMissCoalescingAcrossCrash(t *testing.T) {
	eng, c, be := newTestCache(t, nil)
	got := 0
	c.Read(1<<20, 4096, func(err error) { got++ })
	c.Read(1<<20+4096, 4096, func(err error) { got++ })
	// Crash before the fetch lands: the in-flight fill is orphaned and
	// its result must not populate the post-crash cache.
	eng.Schedule(10*sim.Microsecond, func() {
		c.Crash()
		c.Recover(nil)
	})
	eng.Run()
	if got != 2 {
		t.Fatalf("pre-crash reads completed %d, want 2", got)
	}
	if fills := c.Stats().Fills; fills != 0 {
		t.Fatalf("orphaned fill populated the cache (fills=%d)", fills)
	}
	// A fresh miss after recovery fetches again instead of parking on
	// the dead fill entry.
	c.Read(1<<20, 4096, func(err error) { got++ })
	eng.Run()
	if got != 3 || be.missReads != 2 {
		t.Fatalf("post-crash read: done=%d missReads=%d, want 3/2", got, be.missReads)
	}
}

// TestReadDuringWriteMisses: a read issued while a write to the same range
// is still in flight does not observe it. The write log indexes a record
// only once its device write is durable, so the read misses to the
// backend, even though on the device a read can complete before a write
// issued ahead of it.
func TestReadDuringWriteMisses(t *testing.T) {
	eng, c, be := newTestCache(t, nil)
	acked := false
	c.Write(0, 4096, func(error) { acked = true })
	c.Read(0, 4096, func(error) {})
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d during the write, want 0/1", s.Hits, s.Misses)
	}
	eng.Run()
	if !acked || be.missReads != 1 {
		t.Fatalf("acked=%v missReads=%d, want true/1", acked, be.missReads)
	}
}

func TestWriteShadowsReadCache(t *testing.T) {
	eng, c, _ := newTestCache(t, nil)
	c.Read(0, 4096, func(error) {})
	eng.Run()
	before := c.Stats().ReadCacheUsed
	if before == 0 {
		t.Fatal("fill should populate the read cache")
	}
	c.Write(0, int(c.cfg.ReadAround), func(error) {})
	eng.Run()
	if used := c.Stats().ReadCacheUsed; used != 0 {
		t.Fatalf("overlapping write left %d stale read-cache bytes", used)
	}
}

func TestFlushDrainsAndGC(t *testing.T) {
	eng, c, be := newTestCache(t, nil)
	// Overwrite the same 16 KiB hot range while also streaming enough
	// unique data to seal several segments: the flusher must drain
	// sealed segments and GC dead (overwritten) bytes by omission.
	blk := 16 << 10
	for i := 0; i < 40; i++ {
		c.Write(int64(i%24)*int64(blk), blk, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	eng.Run()
	s := c.Stats()
	if s.Flushes == 0 {
		t.Fatal("expected sealed segments to flush")
	}
	if be.flushOps == 0 {
		t.Fatal("backend saw no flush writes")
	}
	if uint64(be.flushBytes) != s.FlushedBytes {
		t.Fatalf("backend flushed %d bytes, stats say %d", be.flushBytes, s.FlushedBytes)
	}
	if s.FlushedBytes >= s.AppendedBytes {
		t.Fatalf("GC should flush fewer bytes (%d) than appended (%d)", s.FlushedBytes, s.AppendedBytes)
	}
}

func TestThrottleNearCapacity(t *testing.T) {
	eng, c, _ := newTestCache(t, func(cfg *Config) {
		cfg.LogBytes = 256 << 10 // 4 segments
	})
	acked := 0
	n := 64
	for i := 0; i < n; i++ {
		c.Write(int64(i)*64<<10, 60<<10, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			acked++
		})
	}
	eng.Run()
	if acked != n {
		t.Fatalf("acked %d of %d writes", acked, n)
	}
	s := c.Stats()
	if s.Throttles == 0 {
		t.Fatal("expected write-back throttling with a 4-segment log")
	}
}

func TestFlushErrorRetries(t *testing.T) {
	eng, c, be := newTestCache(t, func(cfg *Config) {
		cfg.FlushBatch = 1
	})
	be.failFlush = true
	for i := 0; i < 8; i++ {
		c.Write(int64(i)*64<<10, 60<<10, func(error) {})
	}
	// Let the retry loop spin for a bounded while, then heal the
	// backend and check the backlog drains.
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	if c.Stats().Flushes != 0 {
		t.Fatal("flushes should fail while the backend refuses")
	}
	be.failFlush = false
	eng.Run()
	if c.Stats().Flushes == 0 {
		t.Fatal("backlog should drain once the backend heals")
	}
}

func runCrashScenario(t *testing.T, seed uint64) (Stats, string) {
	t.Helper()
	eng := sim.NewEngine()
	be := &fakeBackend{eng: eng, missLat: 60 * sim.Microsecond, flushLat: 50 * sim.Microsecond}
	cfg := testConfig()
	c, err := New(eng, cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	const blk = 4096
	acks, errs := 0, 0
	issue := func(i int) {
		off := rng.Int63n(192) * blk
		if rng.Intn(100) < 70 {
			c.Write(off, blk, func(err error) {
				if err != nil {
					errs++
				} else {
					acks++
				}
			})
		} else {
			c.Read(off, blk, func(err error) {
				if err != nil {
					errs++
				} else {
					acks++
				}
			})
		}
	}
	n := 400
	for i := 0; i < n; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Time(5*sim.Microsecond), func() { issue(i) })
	}
	// Kill the cache mid-log and bring it back while I/O is still
	// arriving; queued ops must replay, acked writes must survive.
	eng.At(sim.Time(700*sim.Microsecond), c.Crash)
	eng.At(sim.Time(900*sim.Microsecond), func() { c.Recover(nil) })
	eng.Run()
	if acks != n || errs != 0 {
		t.Fatalf("acks=%d errs=%d, want %d/0", acks, errs, n)
	}
	s := c.Stats()
	digest := fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d", s.Hits, s.Misses, s.Appends,
		s.Flushes, s.Replays, s.RecoveryTime, eng.Now())
	return s, digest
}

func TestCrashRecoveryNoAckedLoss(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, _ := runCrashScenario(t, seed)
			if s.Recoveries != 1 {
				t.Fatalf("recoveries = %d, want 1", s.Recoveries)
			}
			if s.LostAcked != 0 {
				t.Fatalf("lost %d acknowledged bytes after recovery", s.LostAcked)
			}
			if s.RecoveryTime <= 0 {
				t.Fatal("recovery should take simulated time")
			}
			if s.Replays == 0 {
				t.Fatal("expected in-flight ops to replay across the crash")
			}
		})
	}
}

func TestCrashRecoveryDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		_, d1 := runCrashScenario(t, seed)
		_, d2 := runCrashScenario(t, seed)
		if d1 != d2 {
			t.Fatalf("seed %d replay diverged: %s vs %s", seed, d1, d2)
		}
	}
}

func TestRecoverySurvivesLogResidentData(t *testing.T) {
	eng, c, be := newTestCache(t, func(cfg *Config) {
		cfg.FlushBatch = 64 // effectively never flush during the test
	})
	c.Write(0, 32<<10, func(error) {})
	eng.Run()
	c.Crash()
	c.Recover(nil)
	eng.Run()
	// The recovered index must still serve the logged range locally.
	c.Read(0, 32<<10, func(err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	eng.Run()
	s := c.Stats()
	if s.Hits != 1 || be.missReads != 0 {
		t.Fatalf("recovered log data should hit locally (hits=%d missReads=%d)", s.Hits, be.missReads)
	}
	if s.LostAcked != 0 {
		t.Fatalf("lost %d acked bytes", s.LostAcked)
	}
}

// TestFifoOrder interleaves pushes and pops so the head-indexed queue
// compacts many times, and checks it pops in push order throughout.
func TestFifoOrder(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < round%5+1 && q.len() > 0; i++ {
			if got := q.pop(); got != want {
				t.Fatalf("round %d: pop = %d, want %d", round, got, want)
			}
			want++
		}
		if q.len() != next-want {
			t.Fatalf("round %d: len = %d, want %d", round, q.len(), next-want)
		}
	}
	q.reset()
	if q.len() != 0 {
		t.Fatalf("len after reset = %d", q.len())
	}
}
