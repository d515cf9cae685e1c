// Package uifd models the DeLiBA-K Unified I/O FPGA Driver (paper §III-B):
// the from-scratch kernel driver that sits under the DMQ block layer and
// drives the FPGA card through QDMA. Each hardware queue context of the
// block layer binds 1:1 to a QDMA queue set, preserving the per-core
// alignment from io_uring instance down to the card. SR-IOV functions give
// tenants (bare-metal or VM) isolated driver instances with their own queue
// quotas — the multi-tenancy support the earlier DeLiBA versions lacked.
package uifd

import (
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/qdma"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CompletionBytes is the C2H writeback size for a write acknowledgement.
const CompletionBytes = 64

// CardRequest is the on-card view of a block request after its command (and
// payload, for writes) has crossed PCIe.
type CardRequest struct {
	Op     blockmq.OpType
	Off    int64
	Len    int
	Flags  uint32
	HCtx   int
	Tenant int
	// Trace is the per-I/O trace context carried across PCIe with the
	// command descriptor.
	Trace trace.Ref
}

// CardBackend is the FPGA-side processing pipeline: placement accelerators,
// replication/EC fan-out over the RTL TCP/IP stack, and the storage cluster
// behind it. Process must call done exactly once.
type CardBackend interface {
	Process(req CardRequest, done func(err error))
}

// TenantKind selects PF (bare metal) or VF (VM passthrough) attachment.
type TenantKind int

const (
	// BareMetal attaches via the physical function.
	BareMetal TenantKind = iota
	// VirtualMachine attaches via an SR-IOV virtual function (the thin
	// hypervisor model: the adapter exposes a VF to the VM).
	VirtualMachine
)

// Driver is one tenant's UIFD instance: a blockmq.Driver whose hardware
// contexts map to dedicated QDMA queue sets.
type Driver struct {
	eng     *sim.Engine
	qdma    *qdma.Engine
	backend CardBackend
	fn      *qdma.Function
	queues  []*qdma.QueueSet
	// vfs/vfQueues are the SR-IOV virtual functions provisioned for
	// tenant-attributed traffic (empty when Config.VFs == 0); tenants hash
	// onto the VF pool, spreading their queue pairs across functions.
	vfs      []*qdma.Function
	vfQueues [][]*qdma.QueueSet
	tenant   int
	// CMACOnly bypasses QDMA for tiny command-only traffic (the paper's
	// network-monitoring use case where the system relies solely on the
	// CMAC interface).
	CMACOnly bool
	// cmacCost is the register-path cost per CMAC-only operation.
	cmacCost sim.Duration

	// free recycles completed commands (see cmd).
	free []*cmd

	// Stats.
	reads, writes uint64
}

// Config sizes a tenant driver.
type Config struct {
	Tenant   int
	Kind     TenantKind
	HWQueues int
	Queue    qdma.QueueKind
	CMACOnly bool
	// VFs provisions that many SR-IOV virtual functions beside the PF, each
	// with its own HWQueues queue sets. Requests carrying a tenant identity
	// hash onto the VFs (thousands of tenants share the VF pool); tenant 0
	// traffic stays on the PF queue sets. 0 disables VF provisioning.
	VFs int
}

// NewDriver allocates a tenant function and its queue sets.
func NewDriver(eng *sim.Engine, qe *qdma.Engine, backend CardBackend, cfg Config) (*Driver, error) {
	if backend == nil {
		return nil, fmt.Errorf("uifd: nil backend")
	}
	if cfg.HWQueues <= 0 {
		return nil, fmt.Errorf("uifd: bad queue count %d", cfg.HWQueues)
	}
	fk := qdma.PF
	if cfg.Kind == VirtualMachine {
		fk = qdma.VF
	}
	fn := qe.AddFunction(fk, cfg.HWQueues)
	d := &Driver{
		eng:      eng,
		qdma:     qe,
		backend:  backend,
		fn:       fn,
		tenant:   cfg.Tenant,
		CMACOnly: cfg.CMACOnly,
		cmacCost: 2 * sim.Microsecond,
	}
	for i := 0; i < cfg.HWQueues; i++ {
		qs, err := qe.AllocQueueSet(cfg.Queue, fn)
		if err != nil {
			return nil, fmt.Errorf("uifd: queue set %d: %w", i, err)
		}
		d.queues = append(d.queues, qs)
	}
	// VF provisioning is pure QDMA state (no engine events), so enabling it
	// cannot perturb the event sequence of untenanted traffic.
	for v := 0; v < cfg.VFs; v++ {
		vfn := qe.AddFunction(qdma.VF, cfg.HWQueues)
		sets := make([]*qdma.QueueSet, 0, cfg.HWQueues)
		for i := 0; i < cfg.HWQueues; i++ {
			qs, err := qe.AllocQueueSet(cfg.Queue, vfn)
			if err != nil {
				return nil, fmt.Errorf("uifd: vf %d queue set %d: %w", v, i, err)
			}
			sets = append(sets, qs)
		}
		d.vfs = append(d.vfs, vfn)
		d.vfQueues = append(d.vfQueues, sets)
	}
	return d, nil
}

// VFs returns the provisioned virtual functions (empty when Config.VFs == 0).
func (d *Driver) VFs() []*qdma.Function { return d.vfs }

// queueFor selects the QDMA queue set for a request: tenant-attributed
// traffic hashes onto the VF pool (function first, then the queue pair
// aligned with the hardware context); everything else rides the PF set
// aligned with its hctx.
func (d *Driver) queueFor(hctx, tenant int) *qdma.QueueSet {
	if tenant > 0 && len(d.vfQueues) > 0 {
		h := uint64(tenant) * 0x9e3779b97f4a7c15
		h ^= h >> 32
		sets := d.vfQueues[h%uint64(len(d.vfQueues))]
		return sets[hctx%len(sets)]
	}
	return d.queues[hctx%len(d.queues)]
}

// Function returns the SR-IOV function backing this driver.
func (d *Driver) Function() *qdma.Function { return d.fn }

// QueueSets returns the driver's queue sets (testing/inspection).
func (d *Driver) QueueSets() []*qdma.QueueSet { return d.queues }

// Stats returns completed read and write counts.
func (d *Driver) Stats() (reads, writes uint64) { return d.reads, d.writes }

// QueueRq implements blockmq.Driver: move the command/payload to the card,
// run the card pipeline, and move the response/ack back.
func (d *Driver) QueueRq(hctx int, req *blockmq.Request) bool {
	if hctx < 0 || hctx >= len(d.queues) {
		return false
	}
	qs := d.queueFor(hctx, req.Tenant)
	tenant := d.tenant
	if req.Tenant > 0 {
		tenant = req.Tenant
	}
	c := d.getCmd()
	c.qs, c.req = qs, req
	c.creq = CardRequest{
		Op:     req.Op,
		Off:    req.Off,
		Len:    req.Len,
		Flags:  req.Flags,
		HCtx:   hctx,
		Tenant: tenant,
		Trace:  req.Trace,
	}
	if d.CMACOnly {
		// Register path: fixed cost, no DMA.
		d.eng.Schedule(d.cmacCost, c.processFn)
		return true
	}
	// H2C: writes carry the payload; reads carry only the command
	// descriptor.
	h2cLen := qdma.DescriptorBytes
	if req.Op == blockmq.OpWrite {
		h2cLen = req.Len
	}
	desc := qdma.Descriptor{Src: uint64(req.Off), Len: uint32(req.Len)}
	if err := qs.Transfer(qdma.H2C, h2cLen, desc, c.processFn); err != nil {
		d.putCmd(c)
		return false // ring full: MQ layer will retry after a completion
	}
	return true
}

// cmd is one block request on its way through the card: H2C, the card
// pipeline, C2H. Commands are pooled on the driver with their steps bound
// once, so steady-state I/O allocates nothing here.
type cmd struct {
	d    *Driver
	qs   *qdma.QueueSet
	req  *blockmq.Request
	creq CardRequest
	perr error

	processFn, finishFn, respondFn func()
	processed                      func(error)
}

func (d *Driver) getCmd() *cmd {
	if k := len(d.free); k > 0 {
		c := d.free[k-1]
		d.free[k-1] = nil
		d.free = d.free[:k-1]
		return c
	}
	c := &cmd{d: d}
	c.processFn = func() { c.d.backend.Process(c.creq, c.processed) }
	c.processed = func(err error) {
		c.perr = err
		c.respond()
	}
	c.finishFn = c.finish
	c.respondFn = c.respond
	return c
}

func (d *Driver) putCmd(c *cmd) {
	c.qs, c.req, c.creq, c.perr = nil, nil, CardRequest{}, nil
	d.free = append(d.free, c)
}

// respond returns data (reads) or a completion writeback (writes) to the
// host and ends the block request.
func (c *cmd) respond() {
	d, req := c.d, c.req
	c2hLen := CompletionBytes
	if req.Op == blockmq.OpRead {
		c2hLen = req.Len
	}
	if d.CMACOnly {
		d.eng.Schedule(d.cmacCost, c.finishFn)
		return
	}
	desc := qdma.Descriptor{Dst: uint64(req.Off), Len: uint32(c2hLen)}
	if err := c.qs.Transfer(qdma.C2H, c2hLen, desc, c.finishFn); err != nil {
		// The C2H ring being full delays the response; retry at descriptor
		// granularity rather than dropping the I/O.
		d.eng.Schedule(d.qdma.Cycles(64), c.respondFn)
	}
}

// finish counts the I/O, recycles c and ends the block request.
func (c *cmd) finish() {
	d, req, perr := c.d, c.req, c.perr
	if req.Op == blockmq.OpRead {
		d.reads++
	} else {
		d.writes++
	}
	d.putCmd(c)
	req.EndIO(perr)
}
