// Package legacyapi holds the host-side cost profile of the legacy I/O path
// that DeLiBA-1 and DeLiBA-2 were built on and that the paper's Section II
// critiques: synchronous syscalls into the kernel nbd driver, which forwards
// each block request to a user-space daemon. Its costs — one syscall per
// operation, several user/kernel context switches and repeated buffer
// copies — are charged explicitly so the io_uring comparison is apples to
// apples. The NBD daemon loop itself (its single-threaded hold and socket
// round trip) is modelled in core/swpath.go, which charges PathCost once per
// request.
package legacyapi

import "repro/internal/sim"

// CostProfile charges the host-side path costs of a legacy API.
type CostProfile struct {
	// SyscallCost per system call.
	SyscallCost sim.Duration
	// ContextSwitches is the number of user/kernel crossings per I/O
	// beyond the syscall itself (the paper counts 6 for DeLiBA-1 and 5
	// for DeLiBA-2).
	ContextSwitches int
	// ContextSwitchCost per crossing.
	ContextSwitchCost sim.Duration
	// Copies is the number of full-buffer memory copies per I/O.
	Copies int
	// CopyPerKiB is the cost of copying 1024 bytes once.
	CopyPerKiB sim.Duration
}

// PathCost returns the total host-side CPU charge for one I/O of n bytes.
func (c CostProfile) PathCost(n int) sim.Duration {
	return c.SyscallCost +
		sim.Duration(c.ContextSwitches)*c.ContextSwitchCost +
		sim.Duration(c.Copies)*sim.Duration(int64(c.CopyPerKiB)*int64(n)/1024)
}
