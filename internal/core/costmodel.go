package core

import (
	"repro/internal/legacyapi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// CostModel collects every calibrated host/path cost. A single instance
// (DefaultCostModel) is shared by all experiments so the tables and figures
// come from one consistent parameterisation; EXPERIMENTS.md records how the
// values were fitted against the paper's software baseline and Table II.
type CostModel struct {
	// --- host APIs -----------------------------------------------------

	// DKIOUring parameterises the DeLiBA-K io_uring rings.
	DKIOUringSyscall sim.Duration
	DKPerSQE         sim.Duration
	DKSQPollLatency  sim.Duration
	// DKRBDMapCost is the kernel RBD offset→object mapping cost per I/O in
	// the UIFD driver.
	DKRBDMapCost sim.Duration

	// D1Host and D2Host are the legacy NBD/user-space path profiles:
	// 6 context switches per I/O for DeLiBA-1, 5 for DeLiBA-2 (paper §III).
	D1Host legacyapi.CostProfile
	D2Host legacyapi.CostProfile
	// NBDSocketRTT is the kernel<->daemon unix socket round trip.
	NBDSocketRTT sim.Duration
	// D1NetWakeup is DeLiBA-1's per-network-message daemon wakeup cost
	// (epoll + interrupt-driven sockets in the user-space loop).
	D1NetWakeup sim.Duration
	// D2SWLibraryRead/Write are the user-space Ceph library costs per op
	// in the DeLiBA-2 software baseline (striping, CRC, throttles); reads
	// pay an extra verify+copy pass.
	D2SWLibraryRead  sim.Duration
	D2SWLibraryWrite sim.Duration

	// --- client-side software processing -------------------------------

	// SWPlacement is the inline per-op software CRUSH cost on the client's
	// hot path. It is smaller than Table I's full-kernel profile (48-55 µs)
	// because the client caches PG mappings and only re-walks buckets on
	// map changes; the full profile is reproduced separately by the tab1
	// experiment.
	SWPlacement sim.Duration
	// SWECEncode returns the software Reed-Solomon encode cost (Table I RS
	// row at 4 kB, scaled per KiB).
	SWECEncode func(n int) sim.Duration
	// SWECDecode is charged for degraded reads in software.
	SWECDecode func(n int) sim.Duration

	// --- FPGA path ------------------------------------------------------

	// HLSLatencyScale multiplies RTL accelerator latency for the HLS
	// kernels of D1/D2 (the paper reports the RTL redesign cut latency by
	// 45.71%, i.e. HLS ≈ 1.84x RTL).
	HLSLatencyScale float64
	// LegacyDMACost is D1/D2's per-crossing host<->card DMA overhead
	// (driver + descriptor handling; DK pays qdma costs instead).
	LegacyDMACost sim.Duration
	// CardProcessing is the card-side fixed pipeline cost per I/O
	// (packetisation, session lookup) for the DK RTL datapath.
	CardProcessing sim.Duration
	// HLSCardProcessing is the same for D1/D2's HLS datapath.
	HLSCardProcessing sim.Duration
	// CardWriteOverhead is the extra write-path cost on the card
	// (payload descriptor handling, doorbells, durability handshake
	// aggregation over the replica acks).
	CardWriteOverhead sim.Duration

	// --- network ----------------------------------------------------

	// HostStack is the kernel TCP/IP profile (client and OSD nodes).
	HostStack netsim.StackCost
	// D1NetStack is DeLiBA-1's host networking profile: kernel TCP plus
	// the daemon's extra per-byte copies (socket buffer → daemon → NBD →
	// page cache) on a single thread, which is why D1's large-block
	// throughput trails even DeLiBA-2's HLS path.
	D1NetStack netsim.StackCost
	// RTLStack is the DK FPGA TCP/IP profile.
	RTLStack netsim.StackCost
	// HLSStack is the D2 FPGA TCP/IP profile (between the two).
	HLSStack netsim.StackCost
	// Propagation is the one-way switch+cable delay.
	Propagation sim.Duration
	// NICBitsPerSec is the 10 GbE line rate.
	NICBitsPerSec float64
}

// DefaultCostModel returns the calibrated model. Fitting anchors:
//   - Fig 3/4 software baseline: DK-SW 4 kB rand read ≈ 85 µs vs D2-SW
//     ≈ 130 µs; rand write 80 µs vs 98 µs.
//   - Table II hardware latency: DK 40/52/64/68 µs (seq-r/seq-w/rand-r/
//     rand-w, 4 kB replication), D2 55/75/85/82, D1 65/95/130/98.
//   - Table I: SW kernel profiles (straw2 48 µs, RS 65 µs) and RTL cycle
//     counts at 235 MHz.
func DefaultCostModel() CostModel {
	d1 := legacyapi.CostProfile{
		SyscallCost:       1200 * sim.Nanosecond,
		ContextSwitches:   6,
		ContextSwitchCost: 1700 * sim.Nanosecond,
		Copies:            3,
		CopyPerKiB:        70 * sim.Nanosecond,
	}
	d2 := d1
	d2.ContextSwitches = 5
	d2.Copies = 2
	return CostModel{
		DKIOUringSyscall: 1200 * sim.Nanosecond,
		DKPerSQE:         250 * sim.Nanosecond,
		DKSQPollLatency:  400 * sim.Nanosecond,
		DKRBDMapCost:     900 * sim.Nanosecond,

		D1Host:           d1,
		D2Host:           d2,
		NBDSocketRTT:     4 * sim.Microsecond,
		D1NetWakeup:      9 * sim.Microsecond,
		D2SWLibraryRead:  28 * sim.Microsecond,
		D2SWLibraryWrite: 18 * sim.Microsecond,

		SWPlacement: 18 * sim.Microsecond,
		SWECEncode: func(n int) sim.Duration {
			return scaleByKiB(12*sim.Microsecond, n, 4096)
		},
		SWECDecode: func(n int) sim.Duration {
			return scaleByKiB(15*sim.Microsecond, n, 4096)
		},

		HLSLatencyScale:   1.84,
		LegacyDMACost:     2500 * sim.Nanosecond,
		CardProcessing:    1500 * sim.Nanosecond,
		HLSCardProcessing: 3500 * sim.Nanosecond,
		CardWriteOverhead: 16 * sim.Microsecond,

		HostStack:  netsim.StackCost{PerMessage: 2000 * sim.Nanosecond, PerKiB: 100 * sim.Nanosecond},
		D1NetStack: netsim.StackCost{PerMessage: 5000 * sim.Nanosecond, PerKiB: 2200 * sim.Nanosecond},
		RTLStack:   netsim.RTLStack,
		// The HLS TCP pipeline sustains well under line rate on large
		// payloads (the limitation §IV-D's RTL redesign removes).
		HLSStack:      netsim.StackCost{PerMessage: 4000 * sim.Nanosecond, PerKiB: 1600 * sim.Nanosecond},
		Propagation:   2 * sim.Microsecond,
		NICBitsPerSec: 10e9,
	}
}

// scaleByKiB scales a reference cost measured at refBytes linearly in the
// payload size, with half the cost treated as fixed.
func scaleByKiB(ref sim.Duration, n, refBytes int) sim.Duration {
	fixed := ref / 2
	variable := ref - fixed
	return fixed + sim.Duration(int64(variable)*int64(n)/int64(refBytes))
}
