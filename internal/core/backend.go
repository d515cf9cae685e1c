package core

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
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
	// trace records card-side spans for sampled ops (nil = off).
	trace *trace.Sink
	// pipeNextFree serializes the card's fixed per-I/O pipeline stage.
	pipeNextFree sim.Time
	// free recycles the pipeline's cardOps (see cardpath.go).
	free []*cardOp
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

// hlsExtra returns the additional latency an HLS kernel pays over the RTL
// redesign (zero for DeLiBA-K).
func (cb *cardBackend) hlsExtra(spec fpga.KernelSpec, passes int) sim.Duration {
	if cb.kernelScale <= 1 {
		return 0
	}
	return sim.Duration(float64(spec.PipelineLatency()) * (cb.kernelScale - 1) * float64(passes))
}

// pcieTime is the legacy (pre-QDMA) host<->card transfer time for D1/D2.
func pcieTime(n int) sim.Duration {
	const legacyPCIeBps = 12e9 // Gen3 x16 with older DMA engine efficiency
	return sim.Duration(float64(n) / legacyPCIeBps * 1e9)
}

var errNoECInD1 = fmt.Errorf("core: DeLiBA-1 has no erasure-coding accelerators")
