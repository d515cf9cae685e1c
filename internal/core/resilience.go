package core

import (
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/rados"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ResilienceConfig shapes the client-side fault tolerance of a testbed's
// stacks: per-attempt deadlines, bounded retries with seeded full-jitter
// backoff, read failover to replica OSDs, and degraded EC reads. The zero
// value (Enabled false) is the pre-fault-injection configuration — no
// policy objects are built and every hot path is bit-identical to a build
// without this file.
type ResilienceConfig struct {
	Enabled bool
	// Deadline bounds each attempt (lost messages surface as timeouts);
	// 0 waits forever.
	Deadline sim.Duration
	// MaxRetries is the number of re-issues after the first attempt.
	MaxRetries int
	// BackoffBase/BackoffCap bound the retry delay window (see
	// faults.Backoff).
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
	// Seed drives the backoff jitter stream.
	Seed uint64
}

// DefaultResilienceConfig returns production-shaped resilience: deadlines
// well above the healthy p999, a handful of retries, and a backoff window
// wide enough to ride out transient fabric faults.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Enabled:     true,
		Deadline:    5 * sim.Millisecond,
		MaxRetries:  4,
		BackoffBase: 50 * sim.Microsecond,
		BackoffCap:  2 * sim.Millisecond,
	}
}

// Resilience is the per-testbed runtime state: the policy, one seeded
// jitter stream shared by every stack on the testbed (draws happen in
// deterministic engine order), and the counters experiments report.
type Resilience struct {
	Cfg      ResilienceConfig
	Counters metrics.Resilience

	eng *sim.Engine
	rng *sim.RNG
	// trace records per-attempt spans for sampled ops (nil = off).
	trace *trace.Sink
}

func newResilience(eng *sim.Engine, cfg ResilienceConfig) *Resilience {
	return &Resilience{Cfg: cfg, eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0xBAC0FF)}
}

// backoff draws the delay before retry attempt (0-based).
func (r *Resilience) backoff(attempt int) sim.Duration {
	return faults.Backoff(r.Cfg.BackoffBase, r.Cfg.BackoffCap, attempt, r.rng)
}

// retryPolicy adapts the testbed policy for the software rados client,
// sharing the counters and the jitter stream.
func (r *Resilience) retryPolicy() *rados.RetryPolicy {
	return &rados.RetryPolicy{
		Deadline:   r.Cfg.Deadline,
		MaxRetries: r.Cfg.MaxRetries,
		Backoff:    r.backoff,
		Counters:   &r.Counters,
	}
}

// retry drives issue through attempts: each gets a deadline timer
// (cancelled via Engine.Cancel when the attempt settles first), failures
// re-issue after a jittered backoff until MaxRetries is spent. A completion
// from an abandoned attempt is dropped — `settled` is per-attempt, so late
// results from a timed-out issue never double-complete done.
//
// For sampled ops each attempt gets a "fanout-attempt" span; the span's
// ref is re-parented into the issue (atr) so the fan-out target spans nest
// under the attempt the critical path descends into, and retries cause-link
// back to the attempt they replace.
func (r *Resilience) retry(isWrite bool, tr trace.Ref, issue func(attempt int, atr trace.Ref, done func(error)), done func(error)) {
	attempt := 0
	start := r.eng.Now()
	inner := done
	// Write outcomes feed the counters' unavailability-window tracking: a
	// write that exhausts its budget opens a stall window backdated to the
	// op's start; the next committed write closes it.
	done = func(err error) {
		if isWrite {
			if err == nil {
				r.Counters.WriteOK(r.eng.Now())
			} else {
				r.Counters.WriteFailed(start)
			}
		}
		inner(err)
	}
	var prevAttempt uint64
	var try func()
	fail := func(err error) {
		if attempt >= r.Cfg.MaxRetries {
			done(err)
			return
		}
		attempt++
		r.Counters.Retries++
		r.eng.Schedule(r.backoff(attempt-1), try)
	}
	try = func() {
		settled := false
		atr := tr
		var h trace.H
		if r.trace != nil && tr.Sampled() {
			h = r.trace.Begin(tr, "fanout-attempt")
			if attempt > 0 {
				h.Link(trace.KindRetry, prevAttempt)
			}
			prevAttempt = h.ID()
			atr = h.Ref()
		}
		var timer sim.EventID
		armed := r.Cfg.Deadline > 0
		if armed {
			timer = r.eng.Schedule(r.Cfg.Deadline, func() {
				if settled {
					return
				}
				settled = true
				h.End()
				r.Counters.DeadlineExceeded++
				fail(rados.ErrDeadline)
			})
		}
		issue(attempt, atr, func(err error) {
			if settled {
				return
			}
			settled = true
			h.End()
			if armed {
				r.eng.Cancel(timer)
			}
			if err == nil {
				done(nil)
				return
			}
			fail(err)
		})
	}
	try()
}

// --- resilient Fanout entry points ---------------------------------------
//
// The R variants fall through to the plain methods when no resilience is
// configured (one nil check — the fan-out hot path is untouched when off).
// When on, writes retry in place, replicated reads fail over by rotating
// the source replica per attempt, and EC reads count reconstruction.

// WriteReplicatedR is WriteReplicated with deadline + retry.
func (f *Fanout) WriteReplicatedR(pool *rados.Pool, pg uint32, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Res == nil {
		f.WriteReplicated(pool, pg, obj, off, n, opts, done)
		return
	}
	f.Res.retry(true, opts.Trace, func(_ int, atr trace.Ref, cb func(error)) {
		aopts := opts
		aopts.Trace = atr
		f.WriteReplicated(pool, pg, obj, off, n, aopts, cb)
	}, done)
}

// ReadReplicatedR is ReadReplicated with deadline + retry + replica
// failover.
func (f *Fanout) ReadReplicatedR(pool *rados.Pool, pg uint32, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Res == nil {
		f.ReadReplicated(pool, pg, obj, off, n, opts, done)
		return
	}
	f.Res.retry(false, opts.Trace, func(attempt int, atr trace.Ref, cb func(error)) {
		aopts := opts
		aopts.Trace = atr
		f.readReplicatedShift(pool, pg, obj, off, n, aopts, attempt, cb)
	}, done)
}

// WriteECR is WriteEC with deadline + retry.
func (f *Fanout) WriteECR(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Res == nil {
		f.WriteEC(pool, obj, off, n, opts, done)
		return
	}
	f.Res.retry(true, opts.Trace, func(_ int, atr trace.Ref, cb func(error)) {
		aopts := opts
		aopts.Trace = atr
		f.WriteEC(pool, obj, off, n, aopts, cb)
	}, done)
}

// ReadECR is ReadEC with deadline + retry; degraded gathers (parity shards
// standing in for unreachable data shards) are counted per attempt.
func (f *Fanout) ReadECR(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(needDecode bool, err error)) {
	if f.Res == nil {
		f.ReadEC(pool, obj, off, n, opts, done)
		return
	}
	degraded := false
	f.Res.retry(false, opts.Trace, func(_ int, atr trace.Ref, cb func(error)) {
		aopts := opts
		aopts.Trace = atr
		f.ReadEC(pool, obj, off, n, aopts, func(needDecode bool, err error) {
			if needDecode {
				degraded = true
				f.Res.Counters.DegradedReads++
			}
			cb(err)
		})
	}, func(err error) { done(degraded, err) })
}
