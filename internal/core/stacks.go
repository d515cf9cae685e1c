package core

import (
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/fpga"
	"repro/internal/iouring"
	"repro/internal/rados"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the stack machinery shared across compositions: the
// io_uring ring set, the two ring targets (DMQ/card and software client),
// and the shell/client helpers. The composed stack, the card placement
// kernel and BuildStack live in layers.go; the declarative specs in
// spec.go.

// DKInstances is the number of io_uring instances DeLiBA-K creates, each
// pinned to its own CPU core (paper §III-A: "DeLiBA-K uses 3 instances").
const DKInstances = 3

// ringEntries is the SQ depth per instance.
const ringEntries = 256

// SQ-full backoff: the application would spin on GetSQE; model the retry
// with a seeded full-jitter delay (mean sqRetryBase + sqRetrySpread/2 =
// 2µs, the old fixed retry) so contended replays are deterministic for a
// given build, including under the -parallel cell runner.
const (
	sqRetryBase   = sim.Microsecond
	sqRetrySpread = 2 * sim.Microsecond
	sqRetrySeed   = 0xDE11BA4B
)

// errIO converts a CQE result to an error.
func errIO(res int32) error {
	if res < 0 {
		return fmt.Errorf("core: I/O failed (res=%d)", res)
	}
	return nil
}

// ringSet is the io_uring host API: the io_uring instances, each with a
// slot table of the I/O records in flight and a reaper. Compositions
// differ only in the ring target.
//
// An SQE's user data names its record: it indexes the ring's slot table,
// through which the target resolves the record on dispatch and the
// reaper, the ring's CQE-drain event (iouring.Ring.SetReaper), completes
// it. Slots are recycled through a per-ring free list, so steady-state
// submission allocates nothing.
type ringSet struct {
	eng   *sim.Engine
	rng   *sim.RNG
	rings []*iouring.Ring
	// slots[i][ud] is the record of ring i's SQE with user data ud (nil
	// when the slot is free); free[i] lists ring i's free slots.
	slots [][]*blockmq.IO
	free  [][]uint64
	// target runs each dispatched SQE's record.
	target ioTarget
	// enter is each ring's Enter, bound once (nil in SQPOLL mode).
	enter []func()
	// retries recycles SQ-full retries (see sqRetry).
	retries []*sqRetry
	// trace records SQ-full backoff spans for sampled ops (nil = off).
	trace *trace.Sink
}

// ioTarget is what a ring dispatches into (the DMQ, the software client,
// the cache tier): it runs io on kernel core cpu, the ring's, and posts
// the result through complete.
type ioTarget interface {
	submit(io *blockmq.IO, cpu int, complete func(res int32))
}

func newRingSet(tb *Testbed, spec StackSpec, target ioTarget) (*ringSet, error) {
	n := spec.ringInstances()
	rs := &ringSet{eng: tb.Eng, rng: sim.NewRNG(sqRetrySeed), trace: tb.traceHost, target: target,
		slots: make([][]*blockmq.IO, n), free: make([][]uint64, n), enter: make([]func(), n)}
	mode := iouring.SQPollMode
	if spec.RingInterrupt {
		mode = iouring.InterruptMode
	}
	for i := 0; i < n; i++ {
		ring, err := iouring.Setup(tb.Eng, iouring.Params{
			Entries:       uint32(spec.ringDepth()),
			Mode:          mode,
			CPU:           i,
			SyscallCost:   tb.CM.DKIOUringSyscall,
			PerSQECost:    tb.CM.DKPerSQE,
			SQPollLatency: tb.CM.DKSQPollLatency,
		}, ringTarget{rs})
		if err != nil {
			return nil, err
		}
		rs.rings = append(rs.rings, ring)
		idx := i
		ring.SetReaper(func(cqe iouring.CQE) { rs.reaped(idx, cqe) })
		if mode != iouring.SQPollMode {
			rs.enter[i] = func() { ring.Enter(nil) }
		}
	}
	return rs, nil
}

// ringTarget is the ring set's iouring.Target: ring i runs on core i, so
// a dispatched request's CPU and user data name its record.
type ringTarget struct{ rs *ringSet }

func (t ringTarget) Submit(req iouring.Request, complete func(res int32)) {
	t.rs.target.submit(t.rs.slots[req.CPU][req.UserData], req.CPU, complete)
}

// reaped frees the CQE's slot and completes its record.
func (rs *ringSet) reaped(idx int, cqe iouring.CQE) {
	io := rs.slots[idx][cqe.UserData]
	rs.slots[idx][cqe.UserData] = nil
	rs.free[idx] = append(rs.free[idx], cqe.UserData)
	io.Complete(errIO(cqe.Res))
}

// slot stores io in a free slot of ring idx and returns its user data.
func (rs *ringSet) slot(idx int, io *blockmq.IO) uint64 {
	if k := len(rs.free[idx]); k > 0 {
		ud := rs.free[idx][k-1]
		rs.free[idx] = rs.free[idx][:k-1]
		rs.slots[idx][ud] = io
		return ud
	}
	rs.slots[idx] = append(rs.slots[idx], io)
	return uint64(len(rs.slots[idx]) - 1)
}

// Submit queues one SQE for io on its CPU's ring; if the SQ is momentarily
// full it retries after a seeded-jitter backoff.
func (rs *ringSet) Submit(io *blockmq.IO) { rs.queue(io, -1) }

// queue is Submit carrying the first SQ-full observation time (-1 = none
// yet), so a successful queue after backing off can record one
// "sq-backoff" span covering the whole retry run.
func (rs *ringSet) queue(io *blockmq.IO, backoffStart sim.Time) {
	idx := io.CPU % len(rs.rings)
	sqe := rs.rings[idx].GetSQE()
	if sqe == nil {
		if backoffStart < 0 {
			backoffStart = rs.eng.Now()
		}
		delay := sqRetryBase + sim.Duration(rs.rng.Int63n(int64(sqRetrySpread)))
		r := rs.getRetry()
		r.io, r.start = io, backoffStart
		rs.eng.Schedule(delay, r.fire)
		return
	}
	if backoffStart >= 0 && rs.trace != nil && io.Trace.Sampled() {
		now := rs.eng.Now()
		rs.trace.Emit(io.Trace, "sq-backoff", backoffStart, now.Sub(backoffStart), 0, "", 0)
	}
	sqe.Op = iouring.OpRead
	if io.Op == Write {
		sqe.Op = iouring.OpWrite
	}
	sqe.Off, sqe.Len, sqe.UserData = io.Off, uint32(io.Len), rs.slot(idx, io)
	if enter := rs.enter[idx]; enter != nil {
		// Without the kernel poller the application must enter, one
		// event after queueing the SQE.
		rs.eng.Schedule(0, enter)
	}
}

// sqRetry is one SQ-full resubmission in flight, pooled on the ring set
// with its event bound once.
type sqRetry struct {
	rs    *ringSet
	io    *blockmq.IO
	start sim.Time
	fire  func()
}

func (rs *ringSet) getRetry() *sqRetry {
	if k := len(rs.retries); k > 0 {
		r := rs.retries[k-1]
		rs.retries = rs.retries[:k-1]
		return r
	}
	r := &sqRetry{rs: rs}
	r.fire = r.retry
	return r
}

func (r *sqRetry) retry() {
	rs, io, start := r.rs, r.io, r.start
	r.io = nil
	rs.retries = append(rs.retries, r)
	rs.queue(io, start)
}

func (rs *ringSet) Close() {
	for _, r := range rs.rings {
		r.Close()
	}
}

// buildShell constructs the FPGA design bound to the pool's placement rule.
func buildShell(tb *Testbed, pool *rados.Pool, staticOnly bool) (*fpga.Shell, error) {
	ruleName := "replicated_osd"
	if pool.Kind == rados.ECPool {
		ruleName = "ec_osd"
	}
	return fpga.BuildShell(tb.Eng, fpga.ShellConfig{
		Map:        tb.Cluster.Map,
		Rule:       tb.Cluster.Map.Rule(ruleName),
		Code:       pool.Code,
		StaticOnly: staticOnly,
	})
}

// newSWClient builds a rados client with software-path costs.
func newSWClient(tb *Testbed, name string) (*rados.Client, error) {
	client, err := rados.NewClient(tb.Cluster, name, tb.CM.NICBitsPerSec, tb.CM.HostStack)
	if err != nil {
		return nil, err
	}
	client.PlacementCost = tb.CM.SWPlacement
	client.ECEncodeCost = tb.CM.SWECEncode
	client.ECDecodeCost = tb.CM.SWECDecode
	client.Functional = tb.Cfg.Functional
	client.Retry = tb.Res
	if tb.Tracer != nil {
		client.TraceSink = tb.traceHost
	}
	if tb.Cfg.SplitDomains {
		client.Split = true
		client.Eng = tb.Eng
	}
	return client, nil
}
