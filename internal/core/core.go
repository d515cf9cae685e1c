// Package core assembles the DeLiBA framework generations end to end: the
// paper's contribution (DeLiBA-K: io_uring host API + DMQ kernel block layer
// + UIFD driver + QDMA + RTL-accelerated FPGA card) and both baselines
// (DeLiBA-1 and DeLiBA-2) over the shared substrates — the simulated Ceph
// cluster, CRUSH, erasure coding, the network fabric and the FPGA device
// model.
//
// Every generation exposes the same Stack interface so the fio workload
// generator and the experiment harnesses drive them interchangeably.
package core

import "repro/internal/blockmq"

// OpType is a block I/O direction; the per-I/O record (blockmq.IO) carries
// it to every layer.
type OpType = blockmq.OpType

const (
	// Read transfers device-to-host.
	Read = blockmq.OpRead
	// Write transfers host-to-device.
	Write = blockmq.OpWrite
)

// Pattern is the access pattern hint carried to the drive model.
type Pattern = blockmq.Pattern

const (
	// Seq marks sequential access.
	Seq = blockmq.Sequential
	// Rand marks random access.
	Rand = blockmq.Random
)

// Stack is one framework generation's full I/O path over the virtual disk:
// Submit starts a block I/O at a byte offset of the image and calls done
// exactly once on completion. Implementations are asynchronous; callers
// bound their queue depth by counting outstanding dones.
type Stack interface {
	// Name identifies the generation/variant, e.g. "deliba-k".
	Name() string
	// Submit starts one block I/O from worker CPU cpu.
	Submit(op OpType, pattern Pattern, off int64, n int, cpu int, done func(error))
	// SubmitTenant is Submit for an I/O owned by a tenant: the identity
	// rides the I/O's record through every layer (QoS scheduling, SR-IOV
	// queue mapping, per-tenant trace exemplars). Tenant 0 is the
	// untenanted default and leaves the event sequence identical to
	// Submit.
	SubmitTenant(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, done func(error))
	// ImageBytes returns the virtual disk size the stack exposes.
	ImageBytes() int64
	// Close releases stack resources (rings, pollers) after a run.
	Close()
}
