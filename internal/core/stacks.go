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

// ringSet manages the io_uring instances with per-ring completion callback
// registries and reaper procs. It is shared by every io_uring host API;
// compositions differ only in the ring Target.
type ringSet struct {
	eng       *sim.Engine
	rng       *sim.RNG
	rings     []*iouring.Ring
	callbacks []map[uint64]func(error)
	nextUD    []uint64
	// trace records SQ-full backoff spans for sampled ops (nil = off).
	trace *trace.Sink
}

func newRingSet(tb *Testbed, spec StackSpec, target iouring.Target) (*ringSet, error) {
	rs := &ringSet{eng: tb.Eng, rng: sim.NewRNG(sqRetrySeed), trace: tb.traceHost}
	mode := iouring.SQPollMode
	if spec.RingInterrupt {
		mode = iouring.InterruptMode
	}
	for i := 0; i < spec.ringInstances(); i++ {
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
		rs.callbacks = append(rs.callbacks, make(map[uint64]func(error)))
		rs.nextUD = append(rs.nextUD, 1)
		idx := i
		tb.Eng.Spawn(fmt.Sprintf("dk-reaper-%d", i), func(p *sim.Proc) {
			rs.reap(p, idx)
		})
	}
	return rs, nil
}

func (rs *ringSet) reap(p *sim.Proc, idx int) {
	for {
		cqe, err := rs.rings[idx].WaitCQE(p)
		if err != nil {
			return
		}
		cb := rs.callbacks[idx][cqe.UserData]
		delete(rs.callbacks[idx], cqe.UserData)
		if cb != nil {
			cb(errIO(cqe.Res))
		}
	}
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
	ud := rs.nextUD[idx]
	rs.nextUD[idx]++
	sqe.UserData = ud
	rs.callbacks[idx][ud] = done
	if rs.rings[idx].Params().Mode != iouring.SQPollMode {
		// Without the kernel poller the application must enter, one
		// event after queueing the SQE.
		rs.eng.Schedule(0, rs.rings[idx].Enter)
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

// dmqTarget adapts io_uring requests into the DMQ block layer: the UIFD
// RBD driver's offset→object mapping cost is charged, then the request
// enters blk-mq (bypass) toward the card. Write-path card overhead
// (descriptor + doorbell + durability aggregation) rides on the request.
type dmqTarget struct {
	eng        *sim.Engine
	mq         *blockmq.MQ
	mapCost    sim.Duration
	writeExtra sim.Duration
	prof       *StageProfile
	trace      *trace.Sink
	// bare skips the kernel span and RBD map cost: the cacheTarget
	// wrapping this target already charged them once above the cache.
	bare bool
}

func (t *dmqTarget) Submit(req iouring.Request, complete func(res int32)) {
	op := blockmq.OpRead
	extra := sim.Duration(0)
	if req.Op == iouring.OpWrite {
		op = blockmq.OpWrite
		extra = t.writeExtra
	}
	endKernel := func() {}
	delay := extra
	tr := req.Trace
	var hk trace.H
	if !t.bare {
		endKernel = t.prof.span(StageKernel)
		delay += t.mapCost
		if t.trace != nil && tr.Sampled() {
			// The kernel span contains the whole below-ring residency;
			// blk-mq and the card pipeline nest under it.
			hk = t.trace.Begin(tr, "kernel")
			tr = hk.Ref()
		}
	}
	t.eng.Schedule(delay, func() {
		// The transport span is the below-block-layer round trip: QDMA
		// H2C, card residency, C2H. Subtract the card stages to isolate
		// the transport itself.
		endTrans := t.prof.span(StageTransport)
		length := req.Len
		t.mq.SubmitAsyncTenant(op, req.Off, int(req.Len), req.RWFlags, req.CPU, req.Tenant, tr, func(err error) {
			endTrans()
			endKernel()
			hk.End()
			if err != nil {
				complete(iouring.ResEIO)
				return
			}
			complete(int32(length))
		})
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
		if prof := tb.Profile; prof != nil {
			// The split protocol's request leg ends on the OSD shard at
			// its canonical arrival time, so the transport span must
			// close against the arrival engine's clock (spanAcross), not
			// the opening domain's.
			client.TransportSpan = func() func(*sim.Engine) {
				return prof.spanAcross(tb.Eng, StageTransport)
			}
		}
	}
	return client, nil
}
