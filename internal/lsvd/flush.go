package lsvd

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// flusher is the background write-back: it drains sealed segments to the
// backend in rounds of up to FlushBatch, parking between rounds until
// wakeFlusher. It is an event chain, not a process: a stage machine whose
// step and callbacks are bound once, issuing the events a flusher process
// would (one Schedule(0) hop when woken from its park or when the
// device's read-back lands, none when a write-back acknowledges, and a
// 1 ms sleep after a refused write-back).
type flusher struct {
	c     *Cache
	stage uint8
	// parked: idle between rounds until wakeFlusher. waiting: waiting on
	// a callback; ready: the callback ran before the chain got to wait.
	parked, waiting, ready bool

	epoch0 uint64   // the epoch the round started in
	left   int      // segments the round may still flush
	seg    *segment // segment being flushed
	live   []Extent // its live extents (reused across segments)
	next   int      // next live extent to write back
	err    error
	span   trace.H

	step      func()
	readBack  func()
	writeBack func(error)
}

// Flusher stages.
const (
	flIdle    uint8 = iota // between rounds: park, stop, or start a round
	flNext                 // flush the round's next sealed segment
	flRead                 // the segment's live bytes were read back
	flExtent               // write back the next live extent
	flWritten              // an extent's write-back returned
	flSegDone              // the segment is done (err: refused)
)

// start binds the chain to c and schedules its first step now.
func (f *flusher) start(c *Cache) {
	f.c = c
	f.step = f.run
	f.readBack = f.readDone
	f.writeBack = f.written
	c.eng.Schedule(0, f.step)
}

func (c *Cache) wakeFlusher() {
	if c.fl.parked {
		c.fl.parked = false
		c.eng.Schedule(0, c.fl.step)
	}
}

func (c *Cache) flusherIdle() bool {
	if c.closed {
		return false
	}
	if c.crashed || c.recovering {
		return true
	}
	if len(c.sealedQ) == 0 {
		return true
	}
	// Batch up: flushing pays a backend round trip per live extent, so
	// wait for FlushBatch sealed segments unless the log is filling.
	return len(c.sealedQ) < c.cfg.FlushBatch && !c.urgent() && len(c.waiters) == 0
}

// wait reports whether the chain must stop until its callback runs.
func (f *flusher) wait() bool {
	if f.ready {
		f.ready = false
		return false
	}
	f.waiting = true
	return true
}

// readDone continues one hop after the device read-back, like a process
// awaiting a completion.
func (f *flusher) readDone() {
	if f.waiting {
		f.waiting = false
		f.c.eng.Schedule(0, f.step)
		return
	}
	f.ready = true
}

// written continues inside the write-back's final event.
func (f *flusher) written(err error) {
	f.err = err
	if f.waiting {
		f.waiting = false
		f.run()
		return
	}
	f.ready = true
}

func (f *flusher) run() {
	c := f.c
	for {
		switch f.stage {
		case flIdle:
			if c.flusherIdle() {
				f.parked = true
				return
			}
			if c.closed {
				return // the chain ends: nothing wakes a closed flusher
			}
			f.epoch0 = c.epoch
			f.left = min(c.cfg.FlushBatch, len(c.sealedQ))
			f.stage = flNext
		case flNext:
			if f.left == 0 || c.epoch != f.epoch0 || c.closed || len(c.sealedQ) == 0 {
				f.stage = flIdle
				continue
			}
			f.left--
			id := c.sealedQ[0]
			c.sealedQ = c.sealedQ[:copy(c.sealedQ, c.sealedQ[1:])]
			seg := c.segs[id]
			seg.state = segFlushing
			f.seg, f.err = seg, nil
			// The flush span joins the trace of the last sampled write
			// that dirtied this segment, cause-linked to that write's
			// cache span — the "why is the backend busy" edge for tail
			// analysis.
			if c.Trace != nil && seg.tr.Sampled() {
				f.span = c.Trace.Begin(seg.tr, "writeback-flush")
				f.span.Link(trace.KindFlush, seg.tr.Parent)
			}
			// Dead bytes are garbage-collected by omission.
			f.live = c.writeIdx.CollectSeg(seg.id, f.live[:0])
			f.next = 0
			var liveBytes int64
			for i := range f.live {
				liveBytes += f.live[i].End - f.live[i].Off
			}
			f.stage = flExtent
			if liveBytes > 0 {
				f.stage = flRead
				c.dev.Read(int(liveBytes), f.readBack)
				if f.wait() {
					return
				}
			}
		case flRead:
			f.stage = flExtent
			if c.epoch != f.epoch0 || c.closed {
				f.stage = flSegDone
			}
		case flExtent:
			if f.next == len(f.live) {
				c.writeIdx.DropSeg(f.seg.id)
				c.recycle(f.seg)
				c.stats.Flushes++
				c.drainWaiters()
				f.stage = flSegDone
				continue
			}
			e := f.live[f.next]
			f.stage = flWritten
			c.be.FlushExtent(e.Off, int(e.End-e.Off), f.writeBack)
			if f.wait() {
				return
			}
		case flWritten:
			f.stage = flSegDone
			if f.err != nil || c.epoch != f.epoch0 || c.closed {
				continue
			}
			e := f.live[f.next]
			f.next++
			if c.cfg.Verify {
				c.flushedIdx.Insert(Extent{Off: e.Off, End: e.End, Seq: e.Seq})
			}
			c.stats.FlushedExtents++
			c.stats.FlushedBytes += uint64(e.End - e.Off)
			f.stage = flExtent
		case flSegDone:
			f.span.End()
			f.span = trace.H{}
			seg := f.seg
			f.seg = nil
			f.stage = flNext
			if c.epoch != f.epoch0 {
				// Crash handling re-filed the segment.
				f.stage = flIdle
				continue
			}
			if f.err != nil {
				// Backend refused: requeue at the head and back off.
				seg.state = segSealed
				c.sealedQ = append(c.sealedQ, 0)
				copy(c.sealedQ[1:], c.sealedQ)
				c.sealedQ[0] = seg.id
				f.err = nil
				f.stage = flIdle
				c.eng.Schedule(sim.Millisecond, f.step)
				return
			}
		}
	}
}
