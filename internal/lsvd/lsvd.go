package lsvd

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// RecordHdrBytes is the on-device size of one record header (offset,
// length, sequence, checksum). Recovery reads only headers, so replay
// cost is proportional to record count, not payload bytes.
const RecordHdrBytes = 32

// SegHdrBytes is the sealed-segment journal header: magic, segment
// sequence, record count, CRC of the header table. One per segment.
const SegHdrBytes = 4096

// Backend is the slower tier behind the cache (the RADOS data path in
// this repo). ReadMiss fetches a read-around window on the async I/O
// path; FlushExtent writes back one live extent durably and calls done
// when the backend acknowledges (or from inside the call, when it fails
// at once). The flusher continues inside done's event.
type Backend interface {
	ReadMiss(off int64, n int, done func(error))
	FlushExtent(off int64, n int, done func(error))
}

// TracedBackend is an optional Backend extension: when implemented, miss
// fills for sampled ops carry the per-I/O trace context down the inner
// data path so the fill's spans nest in the op's trace.
type TracedBackend interface {
	ReadMissTraced(off int64, n int, tr trace.Ref, done func(error))
}

// Config carries the cache-device cost parameters and log geometry.
type Config struct {
	ReadLatency  sim.Duration // per-op device read latency
	WriteLatency sim.Duration // per-op device write latency
	BytesPerSec  float64      // sustained device bandwidth

	LogBytes       int64   // write-log partition size
	SegmentBytes   int64   // append segment size (flush/GC unit)
	FlushWatermark float64 // log fill fraction that makes flushing urgent
	FlushBatch     int     // sealed segments per flush round

	ReadCacheBytes int64 // clean read-cache partition size
	ReadAround     int64 // miss fill window alignment (0 = exact)
	DiskBytes      int64 // virtual disk size; clamps read-around (0 = unbounded)

	// AdmitOnReuse gates read-cache admission on reuse: the first miss on
	// a read-around window fetches only the requested bytes and skips the
	// fill, leaving a ghost mark; a repeat miss on the same window while
	// the mark is live admits with the full read-around fill. Zipf-tail
	// one-touch reads then never displace the hot set.
	AdmitOnReuse bool
	// GhostWindows bounds the ghost recency set in windows (0 = four
	// times the windows the read cache can hold).
	GhostWindows int

	// Verify tracks acknowledged writes in a shadow index and audits
	// them against the recovered state after a crash (test/scenario
	// mode; costs memory proportional to distinct written ranges).
	Verify bool
}

// DefaultConfig returns NVMe-class device parameters: ~1.5 µs read /
// ~3 µs write latency at 3 GB/s, a 256 MiB log in 4 MiB segments, and
// a 64 MiB read cache with 64 KiB read-around.
func DefaultConfig() Config {
	return Config{
		ReadLatency:    1500 * sim.Nanosecond,
		WriteLatency:   3 * sim.Microsecond,
		BytesPerSec:    3e9,
		LogBytes:       256 << 20,
		SegmentBytes:   4 << 20,
		FlushWatermark: 0.75,
		FlushBatch:     4,
		ReadCacheBytes: 64 << 20,
		ReadAround:     64 << 10,
	}
}

func (cfg *Config) validate() error {
	if cfg.SegmentBytes <= RecordHdrBytes {
		return fmt.Errorf("lsvd: SegmentBytes %d too small", cfg.SegmentBytes)
	}
	if cfg.LogBytes < cfg.SegmentBytes {
		return fmt.Errorf("lsvd: LogBytes %d < SegmentBytes %d", cfg.LogBytes, cfg.SegmentBytes)
	}
	if cfg.BytesPerSec <= 0 {
		return errors.New("lsvd: BytesPerSec must be positive")
	}
	if cfg.FlushWatermark <= 0 || cfg.FlushWatermark > 1 {
		return fmt.Errorf("lsvd: FlushWatermark %v out of (0,1]", cfg.FlushWatermark)
	}
	if cfg.FlushBatch <= 0 {
		return errors.New("lsvd: FlushBatch must be positive")
	}
	return nil
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits, Misses, Fills uint64
	// CoalescedFills counts misses that piggybacked on an identical
	// in-flight read-around fetch instead of issuing their own.
	CoalescedFills uint64
	// AdmitBypassed / AdmitReuses split misses under AdmitOnReuse:
	// first-touch misses that fetched exact bytes without filling, and
	// repeat misses the ghost set promoted to a full read-around fill.
	AdmitBypassed  uint64
	AdmitReuses    uint64
	Throttles      uint64
	Flushes        uint64 // segments flushed + recycled
	FlushedExtents uint64
	FlushedBytes   uint64
	Appends        uint64
	AppendedBytes  uint64
	Evictions      uint64
	Recoveries     uint64
	Replays        uint64 // ops re-queued across a crash
	LostAcked      int64  // acked bytes missing after recovery (Verify)
	RecoveryTime   sim.Duration
	FlushBacklog   int   // sealed segments awaiting flush
	LogUsedBytes   int64 // bytes in non-free segments
	ReadCacheUsed  int64
	DeviceReads    uint64
	DeviceWrites   uint64
}

// HitRatio returns hits / (hits + misses), or 0 with no reads.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type segState uint8

const (
	segFree segState = iota
	segActive
	segSealed
	segFlushing
)

// record is one durable log append: payload [off, off+n) at segOff
// within its segment, stamped with the global sequence seq.
type record struct {
	off    int64
	n      int
	seq    uint64
	segOff int64
}

type segment struct {
	id      int
	state   segState
	bytes   int64 // appended bytes incl. headers (issued)
	durable int64 // durably written bytes incl. headers
	records []record
	// tr is the trace context of the most recent sampled write appended
	// to this segment; the write-back flush span cause-links to it.
	tr trace.Ref
}

type fillEnt struct {
	off, end int64
	seq      uint64
}

// fillKey identifies one read-around window with an in-flight backend
// fetch; concurrent misses of the same window coalesce onto it.
type fillKey struct {
	off, end int64
}

// inflightFill parks the completions of coalesced misses until the one
// backend fetch for their window lands. Fills are pooled on the cache with
// their completion bound once.
type inflightFill struct {
	c       *Cache
	key     fillKey
	admit   bool
	epoch   uint64
	done    func(error)
	waiters []func(error)
	onDone  func(error)
}

// complete finishes the window's fetch: it fills the read cache (unless a
// crash or admission policy says otherwise), runs the first miss's
// callback and then the coalesced ones, and recycles f.
func (f *inflightFill) complete(err error) {
	c := f.c
	if c.fills[f.key] == f {
		delete(c.fills, f.key)
	}
	if err == nil && f.admit && f.epoch == c.epoch && !c.crashed && !c.recovering {
		c.fill(f.key.off, f.key.end)
	}
	f.done(err)
	// No miss can join f now: it left the fills map above.
	for _, w := range f.waiters {
		w(err)
	}
	clear(f.waiters)
	f.waiters, f.done = f.waiters[:0], nil
	c.fillPool = append(c.fillPool, f)
}

type pendingOp struct {
	write bool
	off   int64
	n     int
	tr    trace.Ref
	done  func(error)
}

// writeOp tracks one logical write through chunking, durability and
// acknowledgement. Pooled; onResume/onAck-style closures are bound once.
type writeOp struct {
	c            *Cache
	off          int64
	n            int
	issued       int
	chunks       int
	durable      int
	done         func(error)
	epoch        uint64
	queuedReplay bool
	tr           trace.Ref
	recs         []record
}

// readOp carries one cache-hit device read. Pooled with a prebound
// completion closure so the hit path allocates nothing.
type readOp struct {
	c      *Cache
	off    int64
	n      int
	done   func(error)
	epoch  uint64
	tr     trace.Ref
	onDone func()
}

// chunkOp carries one durable-append completion. Pooled, prebound.
type chunkOp struct {
	c         *Cache
	op        *writeOp
	seg       *segment
	rec       record
	onDurable func()
}

// Cache is the log-structured write-back cache. All methods must run
// on the owning engine's event loop; the async Read/Write API mirrors
// the iouring.Target convention used by the stack layers.
type Cache struct {
	eng *sim.Engine
	cfg Config
	dev *Device
	be  Backend

	writeIdx Index // dirty log-resident extents
	readIdx  Index // clean read-cache extents
	readUsed int64

	// Trace, when non-nil, receives write-back flush spans cause-linked
	// to the sampled write that dirtied the flushed segment. It must
	// belong to the cache's own simulation domain.
	Trace *trace.Sink

	segs    []*segment
	active  *segment
	free    []int
	sealedQ []int

	seq uint64

	fillQ []fillEnt
	// fills tracks in-flight miss fetches by window, so QD>1 misses of
	// the same unfilled read-around window pay one backend read, not N.
	fills map[fillKey]*inflightFill
	// ghost is the AdmitOnReuse first-touch set (window base offsets),
	// FIFO-bounded by ghostQ at ghostCap entries. Membership is only ever
	// mutated from the owning engine's loop; iteration order never
	// matters, so the map is determinism-safe.
	ghost    map[int64]bool
	ghostQ   []int64
	ghostCap int

	epoch      uint64
	crashed    bool
	recovering bool
	pending    []pendingOp

	waiters []*writeOp

	fl     flusher
	closed bool

	// Verify-mode shadow state.
	acked      Index // newest acked seq per byte
	flushedIdx Index // newest seq durably in the backend per byte

	readPool  []*readOp
	fillPool  []*inflightFill
	writePool []*writeOp
	chunkPool []*chunkOp
	noop      func()

	stats Stats
}

// New builds a cache on eng backed by be and starts the flusher.
func New(eng *sim.Engine, cfg Config, be Backend) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		eng:   eng,
		cfg:   cfg,
		dev:   NewDevice(eng, cfg.ReadLatency, cfg.WriteLatency, cfg.BytesPerSec),
		be:    be,
		fills: make(map[fillKey]*inflightFill),
	}
	c.noop = func() {}
	if cfg.AdmitOnReuse {
		c.ghost = make(map[int64]bool)
		c.ghostCap = cfg.GhostWindows
		if c.ghostCap <= 0 {
			ra := cfg.ReadAround
			if ra <= 0 {
				ra = 4096
			}
			c.ghostCap = int(cfg.ReadCacheBytes / ra * 4)
			if c.ghostCap < 64 {
				c.ghostCap = 64
			}
		}
	}
	nSegs := int(cfg.LogBytes / cfg.SegmentBytes)
	for i := 0; i < nSegs; i++ {
		c.segs = append(c.segs, &segment{id: i, state: segFree})
		c.free = append(c.free, i)
	}
	c.fl.start(c)
	return c, nil
}

// Device exposes the underlying cache device (for tests).
func (c *Cache) Device() *Device { return c.dev }

// Stats snapshots the counters plus derived occupancy gauges.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.FlushBacklog = len(c.sealedQ)
	var used int64
	for _, seg := range c.segs {
		if seg.state != segFree {
			used += seg.bytes
		}
	}
	s.LogUsedBytes = used
	s.ReadCacheUsed = c.readUsed
	s.DeviceReads = c.dev.Reads
	s.DeviceWrites = c.dev.Writes
	return s
}

// Close stops the flusher. Unflushed data stays in the (simulated)
// log — write-back semantics; Stats().FlushBacklog reports it.
func (c *Cache) Close() {
	c.closed = true
	c.wakeFlusher()
}

// ---- write path ------------------------------------------------------

// Write appends [off, off+n) to the log and calls done once every
// chunk is durable on the cache device (the acknowledgement point for
// crash consistency). Throttles by queueing when the log is full.
func (c *Cache) Write(off int64, n int, done func(error)) {
	c.WriteTraced(off, n, trace.Ref{}, done)
}

// WriteTraced is Write carrying a per-I/O trace context: sampled writes
// tag the segments they dirty so the eventual write-back flush can
// cause-link to them.
func (c *Cache) WriteTraced(off int64, n int, tr trace.Ref, done func(error)) {
	if c.crashed || c.recovering {
		c.pending = append(c.pending, pendingOp{write: true, off: off, n: n, tr: tr, done: done})
		return
	}
	op := c.getWrite()
	op.off, op.n, op.done, op.epoch, op.tr = off, n, done, c.epoch, tr
	if !c.issueWrite(op) {
		c.stats.Throttles++
		c.waiters = append(c.waiters, op)
	}
}

// issueWrite appends op's remaining payload chunk by chunk. Returns
// false (without enqueueing) if the log ran out of free segments.
func (c *Cache) issueWrite(op *writeOp) bool {
	for op.issued < op.n {
		if c.active == nil {
			if len(c.free) == 0 {
				c.wakeFlusher()
				return false
			}
			id := c.free[0]
			c.free = c.free[:copy(c.free, c.free[1:])]
			seg := c.segs[id]
			seg.state = segActive
			c.active = seg
		}
		room := c.cfg.SegmentBytes - c.active.bytes - RecordHdrBytes
		if room <= 0 {
			c.seal()
			continue
		}
		chunk := int64(op.n - op.issued)
		if chunk > room {
			chunk = room
		}
		c.appendChunk(op, int(chunk))
	}
	if c.urgent() {
		c.wakeFlusher()
	}
	return true
}

func (c *Cache) seal() {
	seg := c.active
	c.active = nil
	if seg == nil {
		return
	}
	if seg.bytes == 0 {
		seg.state = segFree
		c.free = append(c.free, seg.id)
		return
	}
	seg.state = segSealed
	// A sealed segment only becomes flushable once every append in it
	// is durable; chunkDurable queues it otherwise.
	if seg.durable == seg.bytes {
		c.sealedQ = append(c.sealedQ, seg.id)
		c.wakeFlusher()
	}
}

func (c *Cache) appendChunk(op *writeOp, n int) {
	seg := c.active
	c.seq++
	rec := record{off: op.off + int64(op.issued), n: n, seq: c.seq, segOff: seg.bytes + RecordHdrBytes}
	seg.records = append(seg.records, rec)
	if op.tr.Sampled() {
		seg.tr = op.tr // latest sampled write wins the flush cause link
	}
	seg.bytes += RecordHdrBytes + int64(n)
	op.issued += n
	op.chunks++
	op.recs = append(op.recs, rec)
	c.stats.Appends++
	c.stats.AppendedBytes += uint64(n)
	ch := c.getChunk()
	ch.op, ch.seg, ch.rec = op, seg, rec
	c.dev.Write(RecordHdrBytes+n, ch.onDurable)
}

func (c *Cache) chunkDurable(ch *chunkOp) {
	op, seg, rec := ch.op, ch.seg, ch.rec
	c.putChunk(ch)
	if op.epoch != c.epoch {
		c.requeueForReplay(op)
		return
	}
	seg.durable += RecordHdrBytes + int64(rec.n)
	if seg.state == segSealed && seg.durable == seg.bytes {
		c.sealedQ = append(c.sealedQ, seg.id)
		c.wakeFlusher()
	}
	end := rec.off + int64(rec.n)
	c.writeIdx.Insert(Extent{Off: rec.off, End: end, Seg: seg.id, SegOff: rec.segOff, Seq: rec.seq})
	// The log now shadows any clean read-cache copy of this range.
	c.readUsed -= c.readIdx.RemoveRange(rec.off, end)
	op.durable++
	if op.durable == op.chunks && op.issued == op.n {
		if c.cfg.Verify {
			for _, r := range op.recs {
				c.acked.Insert(Extent{Off: r.off, End: r.off + int64(r.n), Seq: r.seq})
			}
		}
		done := op.done
		c.putWrite(op)
		done(nil)
	}
}

// requeueForReplay re-queues an op whose in-flight work a crash wiped;
// it re-executes from scratch after recovery. The op was never
// acknowledged, so this preserves exactly-once visible semantics.
func (c *Cache) requeueForReplay(op *writeOp) {
	if !op.queuedReplay {
		op.queuedReplay = true
		c.stats.Replays++
		c.pending = append(c.pending, pendingOp{write: true, off: op.off, n: op.n, tr: op.tr, done: op.done})
	}
	// Recycle only after every issued chunk's (stale) completion has
	// fired, so no device callback still references the struct.
	op.durable++
	if op.durable == op.chunks {
		c.putWrite(op)
	}
}

func (c *Cache) drainWaiters() {
	for len(c.waiters) > 0 {
		op := c.waiters[0]
		c.waiters = c.waiters[:copy(c.waiters, c.waiters[1:])]
		if !c.issueWrite(op) {
			// Still no room: back to the head, preserving FIFO order.
			c.waiters = append(c.waiters, nil)
			copy(c.waiters[1:], c.waiters)
			c.waiters[0] = op
			return
		}
	}
}

func (c *Cache) urgent() bool {
	used := len(c.segs) - len(c.free)
	return float64(used) >= c.cfg.FlushWatermark*float64(len(c.segs))
}

// ---- read path -------------------------------------------------------

// Read serves [off, off+n): a hit (fully covered by the write log and
// read cache combined) pays one local device read; a miss fetches a
// read-around window from the backend and fills the read cache with
// its clean bytes. The hit path performs zero heap allocations.
func (c *Cache) Read(off int64, n int, done func(error)) {
	c.ReadTraced(off, n, trace.Ref{}, done)
}

// ReadTraced is Read carrying a per-I/O trace context: sampled miss fills
// hand it to the backend (when it implements TracedBackend) so the fill's
// data-path spans nest in the op's trace.
func (c *Cache) ReadTraced(off int64, n int, tr trace.Ref, done func(error)) {
	if c.crashed || c.recovering {
		c.pending = append(c.pending, pendingOp{off: off, n: n, tr: tr, done: done})
		return
	}
	end := off + int64(n)
	if CoveredUnion(&c.writeIdx, &c.readIdx, off, end) {
		c.stats.Hits++
		op := c.getRead()
		op.off, op.n, op.done, op.epoch, op.tr = off, n, done, c.epoch, tr
		c.dev.Read(n, op.onDone)
		return
	}
	c.stats.Misses++
	ra0, ra1 := off, end
	if ra := c.cfg.ReadAround; ra > 0 {
		ra0 = off - off%ra
		ra1 = ra0 + (end-ra0+ra-1)/ra*ra
	}
	if c.cfg.DiskBytes > 0 && ra1 > c.cfg.DiskBytes {
		ra1 = c.cfg.DiskBytes
	}
	admit := true
	if c.ghost != nil {
		if c.ghost[ra0] {
			c.stats.AdmitReuses++
		} else {
			// First touch: remember the window, fetch only the requested
			// bytes, and leave the read cache alone.
			c.ghost[ra0] = true
			c.ghostQ = append(c.ghostQ, ra0)
			if len(c.ghostQ) > c.ghostCap {
				delete(c.ghost, c.ghostQ[0])
				c.ghostQ = c.ghostQ[:copy(c.ghostQ, c.ghostQ[1:])]
			}
			c.stats.AdmitBypassed++
			admit = false
			ra0, ra1 = off, end
		}
	}
	key := fillKey{off: ra0, end: ra1}
	if f, ok := c.fills[key]; ok && f.epoch == c.epoch {
		// The window is already being fetched: park on that fill instead
		// of racing a duplicate backend read for the same bytes.
		c.stats.CoalescedFills++
		f.waiters = append(f.waiters, done)
		return
	}
	var f *inflightFill
	if k := len(c.fillPool); k > 0 {
		f = c.fillPool[k-1]
		c.fillPool[k-1] = nil
		c.fillPool = c.fillPool[:k-1]
	} else {
		f = &inflightFill{c: c}
		f.onDone = f.complete
	}
	f.key, f.admit, f.epoch, f.done = key, admit, c.epoch, done
	c.fills[key] = f
	if tb, ok := c.be.(TracedBackend); ok && tr.Sampled() {
		tb.ReadMissTraced(ra0, int(ra1-ra0), tr, f.onDone)
		return
	}
	c.be.ReadMiss(ra0, int(ra1-ra0), f.onDone)
}

func (c *Cache) readDone(op *readOp) {
	done := op.done
	op.done = nil
	if op.epoch != c.epoch {
		c.stats.Replays++
		c.pending = append(c.pending, pendingOp{off: op.off, n: op.n, tr: op.tr, done: done})
		op.tr = trace.Ref{}
		c.readPool = append(c.readPool, op)
		return
	}
	op.tr = trace.Ref{}
	c.readPool = append(c.readPool, op)
	done(nil)
}

// fill caches the clean bytes of a fetched window: sub-ranges the
// write log already maps stay owned by the log (they are newer).
func (c *Cache) fill(ra0, ra1 int64) {
	c.stats.Fills++
	var filled int64
	c.writeIdx.VisitGaps(ra0, ra1, func(o, e int64) {
		c.seq++
		rep := c.readIdx.Insert(Extent{Off: o, End: e, Seq: c.seq})
		c.readUsed += (e - o) - rep
		c.fillQ = append(c.fillQ, fillEnt{off: o, end: e, seq: c.seq})
		filled += e - o
	})
	if filled > 0 {
		c.dev.Write(int(filled), c.noop)
		c.evict()
	}
}

func (c *Cache) evict() {
	for c.readUsed > c.cfg.ReadCacheBytes && len(c.fillQ) > 0 {
		f := c.fillQ[0]
		c.fillQ = c.fillQ[:copy(c.fillQ, c.fillQ[1:])]
		c.readUsed -= c.readIdx.DropRangeSeq(f.off, f.end, f.seq)
		c.stats.Evictions++
	}
}

func (c *Cache) recycle(seg *segment) {
	seg.state = segFree
	seg.bytes = 0
	seg.durable = 0
	seg.tr = trace.Ref{}
	seg.records = seg.records[:0]
	c.free = append(c.free, seg.id)
}

// ---- pools -----------------------------------------------------------

func (c *Cache) getRead() *readOp {
	if n := len(c.readPool); n > 0 {
		op := c.readPool[n-1]
		c.readPool = c.readPool[:n-1]
		return op
	}
	op := &readOp{c: c}
	op.onDone = func() { op.c.readDone(op) }
	return op
}

func (c *Cache) getWrite() *writeOp {
	if n := len(c.writePool); n > 0 {
		op := c.writePool[n-1]
		c.writePool = c.writePool[:n-1]
		return op
	}
	return &writeOp{c: c}
}

func (c *Cache) putWrite(op *writeOp) {
	op.done = nil
	op.issued, op.chunks, op.durable = 0, 0, 0
	op.queuedReplay = false
	op.tr = trace.Ref{}
	op.recs = op.recs[:0]
	c.writePool = append(c.writePool, op)
}

func (c *Cache) getChunk() *chunkOp {
	if n := len(c.chunkPool); n > 0 {
		ch := c.chunkPool[n-1]
		c.chunkPool = c.chunkPool[:n-1]
		return ch
	}
	ch := &chunkOp{c: c}
	ch.onDurable = func() { ch.c.chunkDurable(ch) }
	return ch
}

func (c *Cache) putChunk(ch *chunkOp) {
	ch.op, ch.seg = nil, nil
	c.chunkPool = append(c.chunkPool, ch)
}

// sortRecords orders rs by global sequence (replay order).
func sortRecords(rs []replayRec) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].rec.seq < rs[j].rec.seq })
}

type replayRec struct {
	seg int
	rec record
}
