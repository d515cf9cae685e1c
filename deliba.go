// Package deliba is the public API of the DeLiBA-K reproduction: a
// simulation-backed implementation of the three DeLiBA framework
// generations for FPGA-accelerated distributed block storage (Khan & Koch,
// SC 2024), together with every substrate the paper depends on — io_uring,
// the Linux multi-queue block layer, the QDMA/FPGA card model with DFX
// partial reconfiguration, CRUSH placement, Reed-Solomon erasure coding,
// and a Ceph-like OSD cluster.
//
// # Quickstart
//
//	tb, _ := deliba.NewTestbed(deliba.DefaultTestbedConfig())
//	spec, _ := deliba.ParseStackSpec("deliba-k-hw")
//	stack, _ := tb.BuildStack(spec)
//	res, _ := deliba.RunWorkload(tb, stack, deliba.Workload{
//		ReadPct: 0, Random: true, BlockSize: 4096,
//		QueueDepth: 16, Jobs: 3, Ops: 1000,
//	})
//	fmt.Printf("%.1f kIOPS, %.1f MB/s\n", res.KIOPS(), res.MBps())
//
// A stack is a spec: the five paper generations are rows of one table
// (deliba-1-hw, deliba-2-sw, deliba-2-hw, deliba-k-sw, deliba-k-hw), a
// name takes '+'-joined options ("deliba-k-hw+ec"), and a hybrid is a
// layer-token list (DESIGN.md §9.7).
//
// The full experiment harness that regenerates the paper's tables and
// figures lives in internal/experiments and is driven by cmd/delibabench.
package deliba

import (
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/sim"
)

// TestbedConfig shapes a simulated deployment. See core.TestbedConfig.
type TestbedConfig = core.TestbedConfig

// Testbed is a fully wired deployment (cluster, fabric, pools, images).
type Testbed = core.Testbed

// Stack is one framework generation's end-to-end I/O path.
type Stack = core.Stack

// StackSpec declares a stack composition layer by layer; build one with
// Testbed.BuildStack. See core.StackSpec and DESIGN.md §9.7.
type StackSpec = core.StackSpec

// ParseStackSpec parses a stack name, a name with '+'-joined options, or a
// comma-separated layer-token list into a validated spec.
func ParseStackSpec(s string) (StackSpec, error) { return core.ParseStackSpec(s) }

// DefaultTestbedConfig mirrors the paper's industrial-lab testbed: 2 server
// nodes x 16 OSDs over 10 GbE with one client.
func DefaultTestbedConfig() TestbedConfig { return core.DefaultTestbedConfig() }

// NewTestbed builds the simulated cluster.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) { return core.NewTestbed(cfg) }

// Workload is a simplified fio job description.
type Workload struct {
	// ReadPct is the read percentage (100 = pure read).
	ReadPct int
	// Random selects random instead of sequential access.
	Random bool
	// BlockSize in bytes.
	BlockSize int
	// QueueDepth per job.
	QueueDepth int
	// Jobs is the number of parallel workers.
	Jobs int
	// Ops per job.
	Ops int
	// Seed for reproducibility (0 picks a fixed default).
	Seed uint64
}

// Result is a completed workload's measurements.
type Result = fio.Result

// RunWorkload executes the workload on the stack in virtual time and
// returns latency and throughput statistics. The stack is closed when the
// run finishes; build a fresh one (on a fresh testbed) per run.
func RunWorkload(tb *Testbed, stack Stack, w Workload) (*Result, error) {
	pattern := core.Seq
	if w.Random {
		pattern = core.Rand
	}
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	return fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       "workload",
		ReadPct:    w.ReadPct,
		Pattern:    pattern,
		BlockSize:  w.BlockSize,
		QueueDepth: w.QueueDepth,
		Jobs:       w.Jobs,
		Ops:        w.Ops,
		Seed:       seed,
	})
}

// Microsecond re-exports the virtual-time unit for latency thresholds.
const Microsecond = sim.Microsecond
