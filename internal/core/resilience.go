package core

import (
	"repro/internal/rados"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ResilienceConfig shapes the client-side fault tolerance of a testbed's
// stacks: per-attempt deadlines, bounded retries with seeded full-jitter
// backoff, read failover to replica OSDs, and degraded EC reads. The zero
// value (Enabled false) is the pre-fault-injection configuration — no
// policy is built and every op is issued exactly once.
type ResilienceConfig struct {
	Enabled bool
	rados.RetryConfig
}

// DefaultResilienceConfig returns production-shaped resilience: deadlines
// well above the healthy p999, a handful of retries, and a backoff window
// wide enough to ride out transient fabric faults.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{Enabled: true, RetryConfig: rados.RetryConfig{
		Deadline:    5 * sim.Millisecond,
		MaxRetries:  4,
		BackoffBase: 50 * sim.Microsecond,
		BackoffCap:  2 * sim.Millisecond,
	}}
}

// --- resilient Fanout entry points ---------------------------------------
//
// The R variants are the plain methods when the Fanout has no policy. With
// one, each op runs under it: writes retry in place, replicated reads fail
// over by rotating the source replica per attempt, and EC reads report
// whether an attempt gathered parity shards. Each attempt gets a
// "fanout-attempt" span whose ref parents the attempt's target spans, so
// they nest under the attempt the critical path descends into.

// fanKind selects the Fanout call a retried op issues.
type fanKind uint8

const (
	fanWriteRepl fanKind = iota
	fanReadRepl
	fanWriteEC
	fanReadEC
)

// fanRetry is one fan-out op under the retry policy: the arguments every
// attempt re-issues and where its result goes. Pooled on the Fanout.
type fanRetry struct {
	f      *Fanout
	kind   fanKind
	pool   *rados.Pool
	pg     uint32
	obj    string
	off, n int
	opts   rados.ReqOpts
	done   func(error)
	ecDone func(needDecode bool, err error)
}

// WriteReplicatedR is WriteReplicated with deadline + retry.
func (f *Fanout) WriteReplicatedR(pool *rados.Pool, pg uint32, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	f.retry(fanRetry{kind: fanWriteRepl, pool: pool, pg: pg, obj: obj, off: off, n: n, opts: opts, done: done})
}

// ReadReplicatedR is ReadReplicated with deadline + retry + replica
// failover.
func (f *Fanout) ReadReplicatedR(pool *rados.Pool, pg uint32, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	f.retry(fanRetry{kind: fanReadRepl, pool: pool, pg: pg, obj: obj, off: off, n: n, opts: opts, done: done})
}

// WriteECR is WriteEC with deadline + retry.
func (f *Fanout) WriteECR(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	f.retry(fanRetry{kind: fanWriteEC, pool: pool, obj: obj, off: off, n: n, opts: opts, done: done})
}

// ReadECR is ReadEC with deadline + retry; degraded gathers (parity shards
// standing in for unreachable data shards) are counted per attempt.
func (f *Fanout) ReadECR(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(needDecode bool, err error)) {
	f.retry(fanRetry{kind: fanReadEC, pool: pool, obj: obj, off: off, n: n, opts: opts, ecDone: done})
}

// retry runs op under the Fanout's policy, or issues it once without one.
func (f *Fanout) retry(op fanRetry) {
	op.f = f
	if f.Res == nil {
		op.issue(0, op.opts.Trace, op.done, op.ecDone)
		return
	}
	var r *fanRetry
	if k := len(f.retryFree); k > 0 {
		r = f.retryFree[k-1]
		f.retryFree[k-1] = nil
		f.retryFree = f.retryFree[:k-1]
	} else {
		r = new(fanRetry)
	}
	*r = op
	f.Res.Run(r, op.kind == fanWriteRepl || op.kind == fanWriteEC, f.Trace, "fanout-attempt", op.opts.Trace)
}

// issue makes the op's Fanout call for attempt try under trace parent tr.
func (r *fanRetry) issue(try int, tr trace.Ref, done func(error), ecDone func(bool, error)) {
	f, opts := r.f, r.opts
	opts.Trace = tr
	switch r.kind {
	case fanWriteRepl:
		f.WriteReplicated(r.pool, r.pg, r.obj, r.off, r.n, opts, done)
	case fanReadRepl:
		f.readReplicatedShift(r.pool, r.pg, r.obj, r.off, r.n, opts, try, done)
	case fanWriteEC:
		f.WriteEC(r.pool, r.obj, r.off, r.n, opts, done)
	default:
		f.ReadEC(r.pool, r.obj, r.off, r.n, opts, ecDone)
	}
}

// Issue is the policy's attempt.
func (r *fanRetry) Issue(a *rados.Attempt, try int, tr trace.Ref) {
	r.issue(try, tr, a.Done, a.DoneEC)
}

// Finish recycles the op, then reports its result (in that order: the
// caller may issue an op that reuses the struct).
func (r *fanRetry) Finish(needDecode bool, err error) {
	f, done, ecDone := r.f, r.done, r.ecDone
	*r = fanRetry{}
	f.retryFree = append(f.retryFree, r)
	if ecDone != nil {
		ecDone(needDecode, err)
		return
	}
	done(err)
}
