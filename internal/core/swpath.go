package core

import (
	"errors"

	"repro/internal/blockmq"
	"repro/internal/iouring"
	"repro/internal/legacyapi"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the software data path: the NBD daemon loop of DeLiBA-1/2
// with its three datapaths, and the DK-SW ring target. Each block request
// is an ioOp — a pooled struct whose step is bound once — walking its
// owner's stage machine, so no request needs a goroutine. The chains issue
// exactly the Schedule calls the per-request Procs they replace did, in the
// same order (see the rados client's clientop.go for the rules), which
// keeps every digest byte-identical:
//
//   - the request's Spawn is one Schedule(0) of step;
//   - a Sleep(d), including Sleep(0), is Schedule(d, step);
//   - a Resource.Use is AcquireThen, Schedule(d) and Release;
//   - waiting on a callback operation through a Completion (the card
//     backend, the fan-out engine, the placement kernel) costs one hop
//     when it completes (hopDone, selDone);
//   - a rados client call costs none: the blocking client returned inside
//     the client's final event, so the chain continues right there
//     (callDone, readDone).

// ioOp is one block request in flight on a software data path.
type ioOp struct {
	chain ioChain
	free  *[]*ioOp
	eng   *sim.Engine
	stage uint8

	op      OpType
	pattern Pattern
	off     int64
	n       int
	tenant  int
	tr      trace.Ref
	// Exactly one of done (NBD daemon) and complete (ring target) is set.
	done     func(error)
	complete func(res int32)

	// parked: the chain waits for a callback; ready: the callback already
	// ran, before the chain got to park.
	parked, ready bool
	err           error
	firstErr      error
	// cur/left walk the request's extents; ext is the one in flight.
	cur     int64
	left    int
	ext     rbd.Extent
	penalty sim.Duration
	hk      trace.H

	// Bound once per struct.
	step     func()
	hopDone  func(error)
	callDone func(error)
	readDone func([]byte, error)
	selDone  func(sim.Duration, error)
}

// ioChain is an owner of ioOps: it runs an op's stages from o.stage until
// the op has to wait, and finishes it at the end.
type ioChain interface {
	advance(o *ioOp)
}

// newIOOp takes an op from free, or builds one bound to chain.
func newIOOp(free *[]*ioOp, eng *sim.Engine, chain ioChain) *ioOp {
	if k := len(*free); k > 0 {
		o := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return o
	}
	o := &ioOp{chain: chain, free: free, eng: eng}
	o.step = o.advance
	o.hopDone = o.hopped
	o.callDone = o.called
	o.readDone = o.readCalled
	o.selDone = o.selected
	return o
}

func (o *ioOp) advance() { o.chain.advance(o) }

// finish recycles the op, then reports err to the caller (recycling first:
// the caller may issue its next request from the callback).
func (o *ioOp) finish(err error) {
	done, complete, n := o.done, o.complete, o.n
	*o = ioOp{chain: o.chain, free: o.free, eng: o.eng, step: o.step, hopDone: o.hopDone,
		callDone: o.callDone, readDone: o.readDone, selDone: o.selDone}
	*o.free = append(*o.free, o)
	if done != nil {
		done(err)
		return
	}
	switch {
	case err == nil:
		complete(int32(n))
	case errors.Is(err, rbd.ErrOutOfRange):
		complete(iouring.ResEINVAL)
	default:
		complete(iouring.ResEIO)
	}
}

// sleep continues at stage next after d.
func (o *ioOp) sleep(d sim.Duration, next uint8) {
	o.stage = next
	o.eng.Schedule(d, o.step)
}

// park reports whether the chain must stop and wait for its callback.
func (o *ioOp) park() bool {
	if o.ready {
		o.ready = false
		return false
	}
	o.parked = true
	return true
}

// hopped is the callback of an operation awaited through a Completion: one
// hop if the chain parked, inline if it completed before that.
func (o *ioOp) hopped(err error) {
	o.err = err
	if o.parked {
		o.parked = false
		o.eng.Schedule(0, o.step)
		return
	}
	o.ready = true
}

func (o *ioOp) selected(penalty sim.Duration, err error) {
	o.penalty = penalty
	o.hopped(err)
}

// called is the callback of a rados client call: the chain continues in the
// client's final event.
func (o *ioOp) called(err error) {
	o.err = err
	if o.parked {
		o.parked = false
		o.advance()
		return
	}
	o.ready = true
}

func (o *ioOp) readCalled(_ []byte, err error) { o.called(err) }

// startExtents checks the request's range and starts its extent walk; an
// out-of-range request finishes here, before any extent is visited.
func (o *ioOp) startExtents(im *rbd.Image) bool {
	if err := im.CheckRange(o.off, o.n); err != nil {
		o.finish(err)
		return false
	}
	o.cur, o.left, o.firstErr = o.off, o.n, nil
	return true
}

// nextExtent moves to the request's next extent, reporting false once all
// have been visited.
func (o *ioOp) nextExtent(im *rbd.Image) bool {
	if o.left == 0 {
		return false
	}
	o.ext = im.ExtentAt(o.cur, o.left)
	o.cur += int64(o.ext.Len)
	o.left -= o.ext.Len
	return true
}

// noteErr keeps the first extent error (the NBD daemons drain a request).
func (o *ioOp) noteErr() {
	if o.err != nil && o.firstErr == nil {
		o.firstErr = o.err
	}
}

// callClient issues the current extent through the software client.
func (o *ioOp) callClient(cl *rados.Client, pool *rados.Pool) {
	opts := rados.ReqOpts{Random: o.pattern == Rand, Tenant: o.tenant, Trace: o.tr}
	e := o.ext
	if o.op == Write {
		cl.WriteAsync(pool, e.Object, e.Off, zeros(e.Len), opts, o.callDone)
	} else {
		cl.ReadAsync(pool, e.Object, e.Off, e.Len, opts, o.readDone)
	}
}

// --- NBD daemon ------------------------------------------------------------

// nbdDatapath is what an NBD daemon does with a request once its host path
// cost is paid: cross to the card, call the client library, or run the
// DeLiBA-1 per-extent offload interleave.
type nbdDatapath interface {
	// hostCPU is extra daemon CPU charged with the NBD path cost in one
	// fused daemon hold (splitting it would change contention).
	hostCPU(op OpType, n int) sim.Duration
	// advance runs the datapath's stages, from nbdPath on, and finishes
	// the op.
	advance(o *ioOp)
}

// nbdHost is the single-threaded NBD/user-space daemon loop shared by
// DeLiBA-1/2: every request pays the legacy API crossings on one daemon
// resource, sleeps the NBD socket round trip, then runs its datapath.
type nbdHost struct {
	tb      *Testbed
	profile legacyapi.CostProfile
	daemon  *sim.Resource
	path    nbdDatapath
	free    []*ioOp
}

// NBD daemon stages; datapath stages count on from nbdPath.
const (
	nbdAcquire uint8 = iota // request event: queue for the daemon thread
	nbdCPU                  // daemon held: charge the path cost
	nbdRelease              // free the daemon, cross the NBD socket
	nbdPath
)

func (h *nbdHost) Submit(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, tr trace.Ref, done func(error)) {
	o := newIOOp(&h.free, h.tb.Eng, h)
	o.op, o.pattern, o.off, o.n, o.tenant, o.tr, o.done = op, pattern, off, n, tenant, tr, done
	h.tb.Eng.Schedule(0, o.step)
}

func (h *nbdHost) Close() {}

func (h *nbdHost) advance(o *ioOp) {
	switch o.stage {
	case nbdAcquire:
		// The daemon is single-threaded, so its CPU time serializes
		// across outstanding I/Os.
		o.stage = nbdCPU
		h.daemon.AcquireThen(1, o.step)
	case nbdCPU:
		o.sleep(h.profile.PathCost(o.n)+h.path.hostCPU(o.op, o.n), nbdRelease)
	case nbdRelease:
		h.daemon.Release(1)
		o.sleep(h.tb.CM.NBDSocketRTT, nbdPath)
	default:
		h.path.advance(o)
	}
}

// legacyCardPath is DeLiBA-2's datapath: legacy DMA to the card (payload
// for writes, command for reads), the card pipeline, DMA back.
type legacyCardPath struct {
	cm      CostModel
	backend *cardBackend
}

func (dp *legacyCardPath) hostCPU(OpType, int) sim.Duration { return 0 }

func (dp *legacyCardPath) advance(o *ioOp) {
	for {
		switch o.stage {
		case nbdPath:
			h2c := rados.HdrBytes
			if o.op == Write {
				h2c = o.n
			}
			o.sleep(dp.cm.LegacyDMACost+pcieTime(h2c), nbdPath+1)
			return
		case nbdPath + 1:
			o.stage = nbdPath + 2
			dp.backend.process(o.op, o.pattern, o.off, o.n, o.tenant, o.tr, o.hopDone)
			if o.park() {
				return
			}
		case nbdPath + 2:
			c2h := rados.HdrBytes
			if o.op == Read {
				c2h = o.n
			}
			o.sleep(dp.cm.LegacyDMACost+pcieTime(c2h), nbdPath+3)
			return
		default:
			o.finish(o.err)
			return
		}
	}
}

// clientPath is the software-baseline datapath: the user-space Ceph
// library, extent by extent, on the daemon thread.
type clientPath struct {
	cm     CostModel
	client *rados.Client
	image  *rbd.Image
	pool   *rados.Pool
}

func (dp *clientPath) hostCPU(op OpType, _ int) sim.Duration {
	if op == Read {
		return dp.cm.D2SWLibraryRead
	}
	return dp.cm.D2SWLibraryWrite
}

func (dp *clientPath) advance(o *ioOp) {
	for {
		switch o.stage {
		case nbdPath:
			if !o.startExtents(dp.image) {
				return
			}
			o.stage = nbdPath + 1
		case nbdPath + 1:
			if !o.nextExtent(dp.image) {
				o.finish(o.firstErr)
				return
			}
			o.stage = nbdPath + 2
			o.callClient(dp.client, dp.pool)
			if o.park() {
				return
			}
		default:
			o.noteErr()
			o.stage = nbdPath + 1
		}
	}
}

// d1Path is DeLiBA-1's datapath: per extent, the payload and command
// descriptors round-trip to the card for placement, then the HOST fans out
// over its kernel TCP/IP stack on the same daemon thread (D1 had no FPGA
// network stack).
type d1Path struct {
	tb     *Testbed
	place  Placement
	fan    *Fanout
	image  *rbd.Image
	pool   *rados.Pool
	daemon *sim.Resource
}

func (dp *d1Path) hostCPU(OpType, int) sim.Duration { return 0 }

// fanCPU is the daemon time of the host-side fan-out over the kernel
// TCP/IP stack: one sendmsg per replica and one recvmsg per ack, each a
// syscall + context switch, then an interrupt-driven completion wakeup.
func (dp *d1Path) fanCPU(op OpType) sim.Duration {
	cm := dp.tb.CM
	msgs := dp.pool.Width()
	if op == Read {
		msgs = 1
	}
	return sim.Duration(2*msgs)*(cm.D1Host.SyscallCost+cm.D1Host.ContextSwitchCost) +
		sim.Duration(msgs)*cm.D1NetWakeup
}

func (dp *d1Path) advance(o *ioOp) {
	cm := dp.tb.CM
	for {
		switch o.stage {
		case nbdPath:
			if !o.startExtents(dp.image) {
				return
			}
			o.stage = nbdPath + 1
		case nbdPath + 1:
			if !o.nextExtent(dp.image) {
				o.finish(o.firstErr)
				return
			}
			// The payload crosses to the card (the storage accelerators
			// hash over the data) and back, since D1's network path is on
			// the host; then a second round trip for the command
			// descriptors.
			o.sleep(2*(cm.LegacyDMACost+pcieTime(o.ext.Len)), nbdPath+2)
			return
		case nbdPath + 2:
			o.sleep(2*(cm.LegacyDMACost+pcieTime(rados.HdrBytes)), nbdPath+3)
			return
		case nbdPath + 3:
			o.stage = nbdPath + 4
			dp.place.Select(dp.pool, dp.tb.Cluster.PGOf(dp.pool, o.ext.Object), o.selDone)
			if o.park() {
				return
			}
		case nbdPath + 4:
			if o.err != nil {
				o.noteErr()
				o.stage = nbdPath + 1
				continue
			}
			// The HLS kernel's slowdown is a sleep of its own on the
			// host, even when it is zero.
			if dp.place.Kind() == PlacementHLS {
				o.sleep(o.penalty, nbdPath+5)
				return
			}
			o.stage = nbdPath + 5
		case nbdPath + 5:
			o.stage = nbdPath + 6
			dp.daemon.AcquireThen(1, o.step)
			return
		case nbdPath + 6:
			o.sleep(dp.fanCPU(o.op), nbdPath+7)
			return
		case nbdPath + 7:
			dp.daemon.Release(1)
			o.stage = nbdPath + 8
			opts := rados.ReqOpts{Random: o.pattern == Rand, Tenant: o.tenant, Trace: o.tr}
			if o.op == Write {
				dp.fan.WriteReplicatedR(dp.pool, o.ext.Object, o.ext.Off, o.ext.Len, opts, o.hopDone)
			} else {
				dp.fan.ReadReplicatedR(dp.pool, o.ext.Object, o.ext.Off, o.ext.Len, opts, o.hopDone)
			}
			if o.park() {
				return
			}
		default:
			o.noteErr()
			o.stage = nbdPath + 1
		}
	}
}

// --- DK-SW ring target -------------------------------------------------------

// radosTarget routes ring submissions into the software Ceph client.
type radosTarget struct {
	tb      *Testbed
	client  *rados.Client
	image   *rbd.Image
	pool    *rados.Pool
	mapCost sim.Duration
	trace   *trace.Sink
	// bare skips the kernel span and RBD map cost: the cacheTarget
	// wrapping this target already charged them once above the cache.
	bare bool
	free []*ioOp
}

// DK-SW target stages.
const (
	dkswMap     uint8 = iota // request event: kernel RBD map cost
	dkswMapped               // map cost paid
	dkswExtents              // start the extent walk
	dkswNext                 // issue the next extent
	dkswDone                 // an extent's client call returned
)

func (t *radosTarget) Submit(req iouring.Request, complete func(res int32)) {
	o := newIOOp(&t.free, t.tb.Eng, t)
	o.op, o.pattern = Read, Seq
	if req.Op == iouring.OpWrite {
		o.op = Write
	}
	if req.RWFlags&blockmq.FlagRandom != 0 {
		o.pattern = Rand
	}
	o.off, o.n, o.tenant, o.tr, o.complete = req.Off, int(req.Len), req.Tenant, req.Trace, complete
	t.tb.Eng.Schedule(0, o.step)
}

func (t *radosTarget) advance(o *ioOp) {
	for {
		switch o.stage {
		case dkswMap:
			o.stage = dkswExtents
			if t.bare {
				continue
			}
			// The kernel RBD residency is just the map cost here; the
			// client round trips are siblings, not children, of it.
			if t.trace != nil && o.tr.Sampled() {
				o.hk = t.trace.Begin(o.tr, "kernel")
			}
			o.sleep(t.mapCost, dkswMapped)
			return
		case dkswMapped:
			o.hk.End()
			o.stage = dkswExtents
		case dkswExtents:
			if !o.startExtents(t.image) {
				return
			}
			o.stage = dkswNext
		case dkswNext:
			if !o.nextExtent(t.image) {
				o.finish(nil)
				return
			}
			o.stage = dkswDone
			o.callClient(t.client, t.pool)
			if o.park() {
				return
			}
		case dkswDone:
			if o.err != nil {
				o.finish(o.err)
				return
			}
			o.stage = dkswNext
		}
	}
}
