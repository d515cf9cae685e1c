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
// and the shell/client helpers. The layer implementations and BuildStack
// live in layers.go; the declarative specs in spec.go.

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

// ringSet manages the io_uring instances, each with a completion slot
// table and a reaper. It is shared by every io_uring host API;
// compositions differ only in the ring Target.
//
// A ring's reaper is its CQE-drain event (iouring.Ring.SetReaper), not a
// process: a CQE's user data indexes the ring's slot table, and the drain
// hands the slot's callback the result. Slots are recycled through a
// per-ring free list, so steady-state submission allocates nothing.
type ringSet struct {
	eng   *sim.Engine
	rng   *sim.RNG
	rings []*iouring.Ring
	// slots[i][ud] is the callback of ring i's SQE with user data ud (nil
	// when the slot is free); free[i] lists ring i's free slots.
	slots [][]func(error)
	free  [][]uint64
	// enter is each ring's Enter, bound once (nil in SQPOLL mode).
	enter []func()
	// trace records SQ-full backoff spans for sampled ops (nil = off).
	trace *trace.Sink
}

func newRingSet(tb *Testbed, spec StackSpec, target iouring.Target) (*ringSet, error) {
	n := spec.ringInstances()
	rs := &ringSet{eng: tb.Eng, rng: sim.NewRNG(sqRetrySeed), trace: tb.traceHost,
		slots: make([][]func(error), n), free: make([][]uint64, n), enter: make([]func(), n)}
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
		}, target)
		if err != nil {
			return nil, err
		}
		rs.rings = append(rs.rings, ring)
		idx := i
		ring.SetReaper(func(cqe iouring.CQE) { rs.reaped(idx, cqe) })
		if mode != iouring.SQPollMode {
			rs.enter[i] = ring.Enter
		}
	}
	return rs, nil
}

// reaped frees the CQE's slot and runs its callback.
func (rs *ringSet) reaped(idx int, cqe iouring.CQE) {
	cb := rs.slots[idx][cqe.UserData]
	rs.slots[idx][cqe.UserData] = nil
	rs.free[idx] = append(rs.free[idx], cqe.UserData)
	if cb != nil {
		cb(errIO(cqe.Res))
	}
}

// slot stores done in a free slot of ring idx and returns its user data.
func (rs *ringSet) slot(idx int, done func(error)) uint64 {
	if k := len(rs.free[idx]); k > 0 {
		ud := rs.free[idx][k-1]
		rs.free[idx] = rs.free[idx][:k-1]
		rs.slots[idx][ud] = done
		return ud
	}
	rs.slots[idx] = append(rs.slots[idx], done)
	return uint64(len(rs.slots[idx]) - 1)
}

// submit queues one SQE on the cpu's ring; if the SQ is momentarily full
// it retries after a seeded-jitter backoff.
func (rs *ringSet) submit(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, tr trace.Ref, done func(error)) {
	rs.submitBackoff(op, pattern, off, n, cpu, tenant, tr, -1, done)
}

// submitBackoff is submit carrying the first SQ-full observation time
// (-1 = none yet), so a successful queue after backing off can record
// one "sq-backoff" span covering the whole retry run.
func (rs *ringSet) submitBackoff(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, tr trace.Ref, backoffStart sim.Time, done func(error)) {
	idx := cpu % len(rs.rings)
	sqe := rs.rings[idx].GetSQE()
	if sqe == nil {
		if backoffStart < 0 {
			backoffStart = rs.eng.Now()
		}
		delay := sqRetryBase + sim.Duration(rs.rng.Int63n(int64(sqRetrySpread)))
		rs.eng.Schedule(delay, func() {
			rs.submitBackoff(op, pattern, off, n, cpu, tenant, tr, backoffStart, done)
		})
		return
	}
	if backoffStart >= 0 && rs.trace != nil && tr.Sampled() {
		now := rs.eng.Now()
		rs.trace.Emit(tr, "sq-backoff", backoffStart, now.Sub(backoffStart), 0, "", 0)
	}
	sqe.Trace = tr
	sqe.Tenant = tenant
	sqe.Op = iouring.OpRead
	if op == Write {
		sqe.Op = iouring.OpWrite
	}
	sqe.Off = off
	sqe.Len = uint32(n)
	sqe.BufIndex = 0 // registered buffers: the zero-copy configuration
	if pattern == Rand {
		sqe.RWFlags = blockmq.FlagRandom
	}
	sqe.UserData = rs.slot(idx, done)
	if enter := rs.enter[idx]; enter != nil {
		// Without the kernel poller the application must enter, one
		// event after queueing the SQE.
		rs.eng.Schedule(0, enter)
	}
}

func (rs *ringSet) close() {
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
	if tb.Res != nil {
		client.Retry = tb.Res.retryPolicy()
	}
	if tb.Tracer != nil {
		client.TraceSink = tb.traceHost
	}
	if tb.Cfg.SplitDomains {
		client.Split = true
		client.Eng = tb.Eng
	}
	return client, nil
}
