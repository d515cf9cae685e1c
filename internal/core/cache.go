package core

import (
	"repro/internal/blockmq"
	"repro/internal/lsvd"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file wires the optional LSVD write-back cache tier (internal/lsvd)
// into the stack pipeline. The cache sits between the kernel block layer
// and the transport: ring submissions pay the RBD map cost once, then
// enter the cache; hits complete from the NVMe-class log device, misses
// ride the stack's own (bare) ring target down the normal data path, and
// the background flusher drains sealed segments to RADOS through a
// dedicated software client that reuses the testbed's retry policy.

// cacheTarget is the ring target for cache-lsvd stacks. It owns the
// kernel span and the RBD map cost; the wrapped inner target is built
// bare so neither is charged twice.
type cacheTarget struct {
	eng     *sim.Engine
	cache   *lsvd.Cache
	mapCost sim.Duration
	trace   *trace.Sink
	free    []*cardOp
}

// Cache target stages.
const (
	cacheIssue uint8 = iota // map cost paid: enter the cache
	cacheDone               // the cache completed the request
)

func (t *cacheTarget) submit(io *blockmq.IO, _ int, complete func(res int32)) {
	o := newCardOp(&t.free, t.eng, t)
	o.io, o.tr, o.complete = io, io.Trace, complete
	if t.trace != nil && o.tr.Sampled() {
		// Kernel span covers map cost + cache residency; the cache span
		// and any miss-fill descent nest under it.
		o.hk = t.trace.Begin(o.tr, "kernel")
		o.tr = o.hk.Ref()
	}
	o.stage = cacheIssue
	t.eng.Schedule(t.mapCost, o.step)
}

func (t *cacheTarget) advance(o *cardOp) {
	switch o.stage {
	case cacheIssue:
		ctr := o.tr
		if t.trace != nil && o.tr.Sampled() {
			o.hs = t.trace.Begin(o.tr, "lsvd-cache")
			ctr = o.hs.Ref()
		}
		o.stage = cacheDone
		if o.io.Op == Write {
			t.cache.WriteTraced(o.io.Off, o.io.Len, ctr, o.errDone)
		} else {
			t.cache.ReadTraced(o.io.Off, o.io.Len, ctr, o.errDone)
		}
	case cacheDone:
		o.hs.End()
		o.hk.End()
		o.respond()
	}
}

// cacheBackend adapts the stack's data path to lsvd.Backend: read-around
// miss fills, each an I/O record of its own entering on core 0, ride the
// bare inner ring target (the card pipeline or the software client,
// whichever the spec composed), while flush write-back goes through its
// own rados client so background draining shares the host NIC and the
// cluster's retry policy without occupying the foreground rings.
type cacheBackend struct {
	inner  ioTarget
	client *rados.Client
	image  *rbd.Image
	pool   *rados.Pool
	fills  []*missFill
	// The write-back in flight: the cache's flusher writes back one
	// extent at a time, walking its backing-object extents in order.
	flushOff  int64
	flushLeft int
	flushDone func(error)
	flushed   func(error)
}

// missFill is one miss fill in flight: its record, and the adapter of its
// completion to the cache's callback. Fills are pooled with the adapter
// bound once.
type missFill struct {
	b        *cacheBackend
	io       blockmq.IO
	done     func(error)
	complete func(res int32)
}

func (f *missFill) completed(res int32) {
	done := f.done
	f.done = nil
	f.b.fills = append(f.b.fills, f)
	done(errIO(res))
}

func (b *cacheBackend) ReadMiss(off int64, n int, done func(error)) {
	b.ReadMissTraced(off, n, trace.Ref{}, done)
}

// ReadMissTraced implements lsvd.TracedBackend: sampled miss fills carry
// the caller's trace context down the inner data path.
func (b *cacheBackend) ReadMissTraced(off int64, n int, tr trace.Ref, done func(error)) {
	var f *missFill
	if k := len(b.fills); k > 0 {
		f = b.fills[k-1]
		b.fills[k-1] = nil
		b.fills = b.fills[:k-1]
	} else {
		f = &missFill{b: b}
		f.complete = f.completed
	}
	f.io = blockmq.IO{Op: Read, Pattern: Rand, Off: off, Len: n, Trace: tr}
	f.done = done
	b.inner.submit(&f.io, 0, f.complete)
}

// FlushExtent implements lsvd.Backend: [off, off+n) is written back
// through the flush client one backing-object extent at a time, stopping
// at the first error, each write continuing in the previous one's final
// event.
func (b *cacheBackend) FlushExtent(off int64, n int, done func(error)) {
	if err := b.image.CheckRange(off, n); err != nil {
		done(err)
		return
	}
	if b.flushed == nil {
		b.flushed = b.flushWrote
	}
	b.flushOff, b.flushLeft, b.flushDone = off, n, done
	b.flushNext()
}

func (b *cacheBackend) flushNext() {
	if b.flushLeft == 0 {
		b.flushEnd(nil)
		return
	}
	e := b.image.ExtentAt(b.flushOff, b.flushLeft)
	b.flushOff += int64(e.Len)
	b.flushLeft -= e.Len
	b.client.WriteAsync(b.pool, e.Object, e.Off, rados.Zeros(e.Len), rados.ReqOpts{Random: true}, b.flushed)
}

func (b *cacheBackend) flushWrote(err error) {
	if err != nil {
		b.flushEnd(err)
		return
	}
	b.flushNext()
}

func (b *cacheBackend) flushEnd(err error) {
	done := b.flushDone
	b.flushDone = nil
	done(err)
}

// buildCacheTarget wires the cache tier over a bare inner target: the
// flush client, the cache geometry resolved from the spec, and the
// wrapping ring target.
func (tb *Testbed) buildCacheTarget(s *pipelineStack, inner ioTarget) (*cacheTarget, error) {
	flush, err := newSWClient(tb, "cache-flush")
	if err != nil {
		return nil, err
	}
	cfg := lsvd.DefaultConfig()
	if s.spec.CacheLogMB > 0 {
		cfg.LogBytes = int64(s.spec.CacheLogMB) << 20
	}
	if s.spec.CacheReadMB > 0 {
		cfg.ReadCacheBytes = int64(s.spec.CacheReadMB) << 20
	}
	cfg.DiskBytes = s.image.Size
	cfg.Verify = s.spec.CacheVerify
	cfg.AdmitOnReuse = s.spec.CacheAdmit
	be := &cacheBackend{inner: inner, client: flush, image: s.image, pool: s.pool}
	cache, err := lsvd.New(tb.Eng, cfg, be)
	if err != nil {
		return nil, err
	}
	cache.Trace = tb.traceHost
	s.cache = cache
	return &cacheTarget{eng: tb.Eng, cache: cache, mapCost: tb.CM.DKRBDMapCost, trace: tb.traceHost}, nil
}

// CacheOf returns the stack's LSVD cache tier, or nil for cache-none
// stacks and host APIs that cannot carry one.
func CacheOf(st Stack) *lsvd.Cache {
	if c, ok := st.(interface{ Cache() *lsvd.Cache }); ok {
		return c.Cache()
	}
	return nil
}
