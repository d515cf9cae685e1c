package fpga

import "repro/internal/sim"

// The framing model of DeLiBA-K's RTL TCP/IP TX path (paper §IV-D): a
// message is cut into MTU-sized segments, and each segment occupies the
// pipeline for a fixed number of cycles at the 260 MHz CMAC clock. The
// netsim stack-cost profile abstracts this pipeline for the fabric model;
// the packet-length ablation (experiments.MTU) reads it directly.

// CyclesPerSegment is the TX pipeline occupancy per transmitted segment.
const CyclesPerSegment = 180

// headerBytes per segment (Ethernet+IP+TCP header + FCS).
const headerBytes = 54 + 4

// Segments returns how many segments an n-byte message needs at the given
// MTU; an empty message is one bare-header segment (an ack).
func Segments(mtu, n int) int {
	if n <= 0 {
		return 1
	}
	p := mtu - headerBytes
	return (n + p - 1) / p
}

// PipeTime returns how long an n-byte message occupies the TX pipeline at
// the given MTU.
func PipeTime(mtu, n int) sim.Duration {
	cycles := Segments(mtu, n) * CyclesPerSegment
	return sim.Duration(float64(cycles) / CMACClockHz * 1e9)
}
