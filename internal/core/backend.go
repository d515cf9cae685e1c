package core

import (
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/fpga"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uifd"
)

// cardBackend is the FPGA-side pipeline shared by every card-bearing
// composition: once a block request reaches the card, it is mapped to
// backing objects, placed by the Placement layer's CRUSH kernel, (for EC
// writes) encoded by the RS accelerator, and fanned out to the OSD nodes
// over the card's own TCP/IP stack. The layer kinds parameterise the
// timing: the packetisation FSM cost follows the fan-out generation
// (RTL vs. HLS TCP stack) and the kernel penalty scale follows the
// placement generation.
type cardBackend struct {
	eng   *sim.Engine
	cm    CostModel
	shell *fpga.Shell
	place Placement
	fan   *Fanout
	image *rbd.Image
	pool  *rados.Pool
	// procCost is the card's fixed per-I/O pipeline stage (descriptor
	// handling + packetisation FSM) for this fan-out generation.
	procCost sim.Duration
	// kernelScale is the HLS slowdown charged on non-placement kernels
	// (the RS encoder); 1 for RTL designs.
	kernelScale float64
	// prof optionally records stage latencies.
	prof *StageProfile
	// trace records card-side spans for sampled ops (nil = off).
	trace *trace.Sink
	// pipeNextFree serializes the card's fixed per-I/O pipeline stage.
	pipeNextFree sim.Time
}

// join invokes done(first error) after n sub-operations complete.
func join(eng *sim.Engine, n int, done func(error)) func(error) {
	remaining := n
	var firstErr error
	return func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 {
			done(firstErr)
		}
	}
}

// reservePipe books the card pipeline FSM for cost, returning the wait
// until this I/O's slot completes.
func (cb *cardBackend) reservePipe(cost sim.Duration) sim.Duration {
	now := cb.eng.Now()
	start := now
	if cb.pipeNextFree > start {
		start = cb.pipeNextFree
	}
	cb.pipeNextFree = start.Add(cost)
	return cb.pipeNextFree.Sub(now)
}

// Process implements uifd.CardBackend (the DeLiBA-K entry point).
func (cb *cardBackend) Process(req uifd.CardRequest, done func(err error)) {
	op := Read
	if req.Op == blockmq.OpWrite {
		op = Write
	}
	pattern := Seq
	if req.Flags&blockmq.FlagRandom != 0 {
		pattern = Rand
	}
	cb.process(op, pattern, req.Off, req.Len, req.Tenant, req.Trace, done)
}

// process runs the card pipeline for one block I/O. It is also called
// directly by the DeLiBA-2 stack, which reaches the card via its legacy DMA
// path instead of UIFD/QDMA.
func (cb *cardBackend) process(op OpType, pattern Pattern, off int64, n, tenant int, tr trace.Ref, done func(error)) {
	var sub func(error)
	err := cb.image.VisitExtents(off, n, false, func(e rbd.Extent) error {
		if sub == nil {
			// The first extent sizes the join: [off, off+n) spans one
			// extent per backing object it touches.
			ob := int64(cb.image.ObjectBytes)
			sub = join(cb.eng, int((off+int64(n)-1)/ob-off/ob+1), done)
		}
		cb.processExtent(op, pattern, e, tenant, tr, sub)
		return nil
	})
	if err != nil {
		cb.eng.Schedule(0, func() { done(err) })
	}
}

func (cb *cardBackend) processExtent(op OpType, pattern Pattern, e rbd.Extent, tenant int, tr trace.Ref, done func(error)) {
	if cb.trace != nil && tr.Sampled() {
		// The card-pipeline span contains placement, encode and fan-out;
		// re-parent so those nest under it.
		hp := cb.trace.Begin(tr, "card-pipeline")
		tr = hp.Ref()
		inner := done
		done = func(err error) {
			hp.End()
			inner(err)
		}
	}
	opts := rados.ReqOpts{Random: pattern == Rand, Tenant: tenant, Trace: tr}
	pg := cb.fan.Cluster.PGOf(cb.pool, e.Object)

	// Stage ④: the placement layer's CRUSH kernel computes the placement
	// on the card, returning its generation's kernel penalty.
	var hsel trace.H
	if cb.trace != nil && tr.Sampled() {
		hsel = cb.trace.Begin(tr, "crush-select")
	}
	cb.place.Select(cb.pool, pg, func(extra sim.Duration, err error) {
		hsel.End()
		if err != nil {
			done(err)
			return
		}
		// The kernel selects on the same input as Cluster.ActingSet, so
		// its answer is the acting set the Fanout then looks up in the
		// cluster's placement cache; the accelerator charge above is the
		// hardware time for computing it.
		cb.after(extra+cb.reservePipe(cb.procCost), func() {
			fanDone := func(endFan func()) func(error) {
				return func(err error) {
					endFan()
					done(err)
				}
			}
			switch {
			case op == Write && cb.pool.Kind == rados.ECPool:
				// Stage ④ continued: RS encode on the card, then shard
				// fan-out over the card NIC (stage ⑥).
				rs := cb.shell.RS
				endEnc := cb.prof.span(StageEncode)
				var henc trace.H
				if cb.trace != nil && tr.Sampled() {
					henc = cb.trace.Begin(tr, "rs-encode")
				}
				rs.Encode(e.Len, nil, func(err error) {
					henc.End()
					endEnc()
					if err != nil {
						done(err)
						return
					}
					cb.after(cb.hlsExtra(rs.Spec, 1), func() {
						cb.fan.WriteECR(cb.pool, e.Object, e.Off, e.Len, opts,
							fanDone(cb.prof.span(StageFanout)))
					})
				})
			case op == Write:
				cb.fan.WriteReplicatedR(cb.pool, e.Object, e.Off, e.Len, opts,
					fanDone(cb.prof.span(StageFanout)))
			case cb.pool.Kind == rados.ECPool:
				endFan := cb.prof.span(StageFanout)
				cb.fan.ReadECR(cb.pool, e.Object, e.Off, e.Len, opts, func(needDecode bool, err error) {
					endFan()
					if err != nil || !needDecode {
						done(err)
						return
					}
					// Degraded read: reconstruct on the card.
					var hrec trace.H
					if cb.trace != nil && tr.Sampled() {
						hrec = cb.trace.Begin(tr, "ec-reconstruct")
						hrec.Link(trace.KindDegraded, 0)
					}
					cb.shell.RS.Encode(e.Len, nil, func(err error) {
						hrec.End()
						done(err)
					})
				})
			default:
				cb.fan.ReadReplicatedR(cb.pool, e.Object, e.Off, e.Len, opts,
					fanDone(cb.prof.span(StageFanout)))
			}
		})
	})
}

// hlsExtra returns the additional latency an HLS kernel pays over the RTL
// redesign (zero for DeLiBA-K).
func (cb *cardBackend) hlsExtra(spec fpga.KernelSpec, passes int) sim.Duration {
	if cb.kernelScale <= 1 {
		return 0
	}
	return sim.Duration(float64(spec.PipelineLatency()) * (cb.kernelScale - 1) * float64(passes))
}

func (cb *cardBackend) after(d sim.Duration, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	cb.eng.Schedule(d, fn)
}

// pcieTime is the legacy (pre-QDMA) host<->card transfer time for D1/D2.
func pcieTime(n int) sim.Duration {
	const legacyPCIeBps = 12e9 // Gen3 x16 with older DMA engine efficiency
	return sim.Duration(float64(n) / legacyPCIeBps * 1e9)
}

var errNoECInD1 = fmt.Errorf("core: DeLiBA-1 has no erasure-coding accelerators")
