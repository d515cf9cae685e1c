package core

import (
	"fmt"

	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// cardBackend is the FPGA-side pipeline shared by every card-bearing
// composition: once a block request reaches the card, it is mapped to
// backing objects, placed by the card's CRUSH kernel, (for EC
// writes) encoded by the RS accelerator, and fanned out to the OSD nodes
// over the card's own TCP/IP stack. The layer kinds parameterise the
// timing: the packetisation FSM cost follows the fan-out generation
// (RTL vs. HLS TCP stack) and the kernel penalty scale follows the
// placement generation.
type cardBackend struct {
	eng *sim.Engine
	cm  CostModel
	// place is the CRUSH kernel on the card's FPGA shell; its latency
	// scale also charges the HLS slowdown on the RS encoder.
	place *cardPlacement
	fan   *Fanout
	image *rbd.Image
	pool  *rados.Pool
	// procCost is the card's fixed per-I/O pipeline stage (descriptor
	// handling + packetisation FSM) for this fan-out generation.
	procCost sim.Duration
	// trace records card-side spans for sampled ops (nil = off).
	trace *trace.Sink
	// pipe serializes the card's fixed per-I/O pipeline stage.
	pipe sim.Server
	// free recycles the pipeline's cardOps (see cardpath.go).
	free []*cardOp
}

// pcieTime is the legacy (pre-QDMA) host<->card transfer time for D1/D2.
func pcieTime(n int) sim.Duration {
	const legacyPCIeBps = 12e9 // Gen3 x16 with older DMA engine efficiency
	return sim.Duration(float64(n) / legacyPCIeBps * 1e9)
}

var errNoECInD1 = fmt.Errorf("core: DeLiBA-1 has no erasure-coding accelerators")
