package lsvd

import "repro/internal/sim"

// Crash simulates losing the host: every in-memory map (extent index,
// read cache, parked writers) vanishes; the log keeps exactly the
// records whose device writes had completed. In-flight device and
// backend completions from before the crash detect the epoch change
// and re-queue their ops for replay. I/O submitted while down queues
// and replays after Recover.
func (c *Cache) Crash() {
	if c.crashed {
		return
	}
	c.epoch++
	c.crashed = true
	// Roll each segment back to its durable frontier: appends that had
	// not completed never hit the medium. Device completions are FIFO,
	// so the frontier is a prefix of the record list.
	for _, seg := range c.segs {
		if seg.state == segFree {
			continue
		}
		var durable int64
		keep := 0
		for _, r := range seg.records {
			sz := RecordHdrBytes + int64(r.n)
			if durable+sz > seg.durable {
				break
			}
			durable += sz
			keep++
		}
		seg.records = seg.records[:keep]
		seg.bytes = durable
	}
	c.writeIdx.Reset()
	c.readIdx.Reset()
	c.readUsed = 0
	c.fillQ.reset()
	// Orphan in-flight fills: their completions still fire (the epoch
	// check skips the cache insert), but post-crash misses must fetch
	// fresh rather than park on a result that predates the crash.
	c.fills = make(map[fillKey]*inflightFill)
	// The admission ghost set is in-memory recency state; it dies with
	// the host like the indexes.
	if c.ghost != nil {
		c.ghost = make(map[int64]bool)
		c.ghostQ.reset()
	}
	// Parked writers never acknowledged anything: replay them whole.
	for _, op := range c.waiters {
		if !op.queuedReplay {
			op.queuedReplay = true
			c.stats.Replays++
			c.pending = append(c.pending, pendingOp{write: true, off: op.off, n: op.n, tr: op.tr, done: op.done})
			if op.durable == op.chunks {
				c.putWrite(op)
			}
		}
	}
	c.waiters = c.waiters[:0]
	c.active = nil
	c.sealedQ = c.sealedQ[:0]
	c.free = c.free[:0]
	for _, seg := range c.segs {
		if seg.state == segFree || len(seg.records) == 0 {
			c.recycleCrashed(seg)
		}
	}
}

func (c *Cache) recycleCrashed(seg *segment) {
	seg.state = segFree
	seg.bytes = 0
	seg.durable = 0
	seg.records = seg.records[:0]
	c.free = append(c.free, seg.id)
}

// Recover replays the log: a bounded scan of each surviving segment's
// journal header plus record headers (cost proportional to record
// count, not payload), rebuilding the extent index in sequence order.
// The read cache restarts cold. Queued and replayed ops re-execute
// once recovery completes; done (optional) fires at that point.
func (c *Cache) Recover(done func()) {
	if !c.crashed {
		if done != nil {
			done()
		}
		return
	}
	c.crashed = false
	c.recovering = true
	c.eng.Schedule(0, func() {
		start := c.eng.Now()
		// Scan pass over each surviving segment in turn: journal header +
		// record headers. Each read's continuation rides one Schedule(0)
		// hop after the read's event, which is part of the cache family's
		// event order.
		var replay []replayRec
		i := 0
		var scan func()
		scan = func() {
			for i < len(c.segs) {
				seg := c.segs[i]
				i++
				if seg.state == segFree {
					continue
				}
				n := SegHdrBytes + len(seg.records)*RecordHdrBytes
				c.dev.Read(n, func() {
					c.eng.Schedule(0, func() {
						for _, r := range seg.records {
							replay = append(replay, replayRec{seg: seg.id, rec: r})
						}
						scan()
					})
				})
				return
			}
			c.finishRecovery(replay, start, done)
		}
		scan()
	})
}

// finishRecovery rebuilds the index from the scanned records, requeues every
// surviving segment for flush, and re-executes the held I/O.
func (c *Cache) finishRecovery(replay []replayRec, start sim.Time, done func()) {
	sortRecords(replay)
	for _, rr := range replay {
		c.writeIdx.Insert(Extent{
			Off:    rr.rec.off,
			End:    rr.rec.off + int64(rr.rec.n),
			Seg:    rr.seg,
			SegOff: rr.rec.segOff,
			Seq:    rr.rec.seq,
		})
		if rr.rec.seq > c.seq {
			c.seq = rr.rec.seq
		}
	}
	// Every surviving segment is sealed (partial actives included)
	// and queued for flush, oldest first.
	c.sealedQ = c.sealedQ[:0]
	for _, rr := range replay {
		seg := c.segs[rr.seg]
		if seg.state != segSealed {
			seg.state = segSealed
			c.sealedQ = append(c.sealedQ, seg.id)
		}
	}
	c.stats.Recoveries++
	c.stats.RecoveryTime = c.eng.Now().Sub(start)
	if c.cfg.Verify {
		c.stats.LostAcked += c.auditAcked()
	}
	c.recovering = false
	pend := c.pending
	c.pending = nil
	for _, po := range pend {
		if po.write {
			c.WriteTraced(po.off, po.n, po.tr, po.done)
		} else {
			c.ReadTraced(po.off, po.n, po.tr, po.done)
		}
	}
	c.wakeFlusher()
	if done != nil {
		done()
	}
}

// auditAcked returns the number of acknowledged bytes that neither the
// recovered log index nor the flushed-to-backend shadow accounts for.
// Zero by construction: acks only follow durable appends, and GC only
// drops a segment after its live extents are backend-durable.
func (c *Cache) auditAcked() int64 {
	var lost int64
	c.acked.VisitRange(0, 1<<62, func(a Extent) bool {
		pos := a.Off
		for pos < a.End {
			step := a.End
			cov := false
			if e, ok := c.writeIdx.At(pos); ok {
				if e.Seq == a.Seq {
					cov = true
				}
				if e.End < step {
					step = e.End
				}
			} else if ns := c.writeIdx.NextStart(pos); ns < step {
				step = ns
			}
			if !cov {
				if e, ok := c.flushedIdx.At(pos); ok {
					if e.Seq >= a.Seq {
						cov = true
					}
					if e.End < step {
						step = e.End
					}
				} else if ns := c.flushedIdx.NextStart(pos); ns < step {
					step = ns
				}
			}
			if !cov {
				lost += step - pos
			}
			pos = step
		}
		return true
	})
	return lost
}
