package rados

import (
	"errors"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrDeadline marks an attempt abandoned at its per-attempt deadline. The
// operation may still complete on the cluster (the attempt keeps running
// unobserved), which is why only idempotent ops are retried this way.
var ErrDeadline = errors.New("deadline exceeded")

// RetryPolicy is client-side resilience and the one attempt loop that
// applies it: per-attempt deadlines, bounded retries with seeded
// full-jitter backoff, the resilience counters and the write stall window.
// The software client (Client.Retry) and the fan-outs of internal/core run
// their ops through it, each supplying only its attempt (see Attempter).
// Runs and attempts are pooled on the policy, so a warm retried op
// allocates nothing. Like the engine it drives, it is single-threaded.
type RetryPolicy struct {
	// Counters receives the accounting of every op the policy runs.
	Counters metrics.Resilience

	cfg      RetryConfig
	eng      *sim.Engine
	rng      *sim.RNG // the jitter stream every op shares, drawn in engine order
	runs     []*retryRun
	attempts []*Attempt
}

// RetryConfig shapes a retry policy.
type RetryConfig struct {
	// Deadline bounds each attempt (lost messages surface as timeouts);
	// 0 waits forever.
	Deadline sim.Duration
	// MaxRetries is the number of re-issues after the first attempt.
	MaxRetries int
	// BackoffBase/BackoffCap bound the retry delay window (see Backoff).
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
	// Seed drives the backoff jitter stream.
	Seed uint64
}

// NewRetryPolicy returns the policy cfg describes, driven by eng.
func NewRetryPolicy(eng *sim.Engine, cfg RetryConfig) *RetryPolicy {
	return &RetryPolicy{cfg: cfg, eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0xBAC0FF)}
}

// Backoff returns the delay before retry attempt (0-based) of a failed
// operation: capped exponential growth with full deterministic jitter.
//
// The jitter window for attempt a is [base, min(cap, base·2^a)], so the
// result always satisfies base <= d <= cap (after clamping cap below base
// to base). Drawing from rng keeps retries from synchronising across
// clients while staying bit-reproducible: the same seeded rng replays the
// same delays. A nil rng returns the window's upper edge (pure, jitter-free
// backoff), which is what the fuzz oracle checks the jittered value
// against.
func Backoff(base, cap sim.Duration, attempt int, rng *sim.RNG) sim.Duration {
	if base < 0 {
		base = 0
	}
	if cap < base {
		cap = base
	}
	ceil := base
	for i := 0; i < attempt && ceil < cap; i++ {
		ceil *= 2
		if ceil <= 0 { // overflow: 2^a outran int64
			ceil = cap
			break
		}
	}
	if ceil > cap {
		ceil = cap
	}
	span := int64(ceil - base)
	if span <= 0 || rng == nil {
		return ceil
	}
	return base + sim.Duration(rng.Int63n(span+1))
}

// Attempter is a caller's part of a retried op.
type Attempter interface {
	// Issue starts attempt try (0-based) under trace parent tr. The
	// attempt reports its result exactly once, through a.Done or, for an
	// erasure-coded read, a.DoneEC; it may do so before Issue returns.
	Issue(a *Attempt, try int, tr trace.Ref)
	// Finish receives the op's result once the policy stops retrying: nil
	// after a successful attempt, else the last attempt's error.
	// needDecode reports whether an observed attempt was an EC read that
	// gathered parity shards.
	Finish(needDecode bool, err error)
}

// Attempt is one try of a retried op. It goes back to the policy's pool
// only when its own completion arrives: a deadline abandons the attempt
// but leaves it out of the pool, so its late result still finds it marked
// abandoned and is dropped, however often the op's run has been recycled
// and reused in the meantime.
type Attempt struct {
	p   *RetryPolicy
	run *retryRun // the run observing the attempt; nil once abandoned

	// Done reports the attempt's result; DoneEC does for an EC read, which
	// also reports whether it needed parity shards. Both are bound once.
	Done   func(err error)
	DoneEC func(needDecode bool, err error)
}

// retryRun is the loop state of one op under the policy.
type retryRun struct {
	p          *RetryPolicy
	x          Attempter
	write      bool
	needDecode bool
	sink       *trace.Sink
	span       string
	tr         trace.Ref
	try        int
	start      sim.Time
	h          trace.H // the current attempt's span
	prev       uint64  // span ID of the attempt before it
	cur        *Attempt
	timer      sim.EventID

	// Bound once per struct.
	next    func() // issues attempt try
	timeout func() // the current attempt's deadline
}

// Run drives x through attempts until one succeeds or the retries are
// spent. A write's outcome closes or opens the stall window, backdated to
// the op's start. Each attempt begins its span (named span on sink for a
// sampled op, cause-linked to the attempt it replaces), arms its deadline
// timer and is issued under the span, in that order.
func (p *RetryPolicy) Run(x Attempter, write bool, sink *trace.Sink, span string, tr trace.Ref) {
	var r *retryRun
	if k := len(p.runs); k > 0 {
		r = p.runs[k-1]
		p.runs[k-1] = nil
		p.runs = p.runs[:k-1]
	} else {
		r = &retryRun{p: p}
		r.next, r.timeout = r.issue, r.expire
	}
	r.x, r.write, r.sink, r.span, r.tr = x, write, sink, span, tr
	r.start = p.eng.Now()
	r.issue()
}

// issue starts attempt r.try.
func (r *retryRun) issue() {
	p := r.p
	r.h = r.sink.Begin(r.tr, r.span)
	if r.try > 0 {
		r.h.Link(trace.KindRetry, r.prev)
	}
	r.prev = r.h.ID()
	atr := r.tr
	if r.h.On() {
		atr = r.h.Ref()
	}
	var a *Attempt
	if k := len(p.attempts); k > 0 {
		a = p.attempts[k-1]
		p.attempts[k-1] = nil
		p.attempts = p.attempts[:k-1]
	} else {
		a = &Attempt{p: p}
		a.Done, a.DoneEC = a.complete, a.completeEC
	}
	a.run, r.cur = r, a
	if p.cfg.Deadline > 0 {
		r.timer = p.eng.Schedule(p.cfg.Deadline, r.timeout)
	}
	r.x.Issue(a, r.try, atr)
}

// complete recycles the attempt and, unless it was abandoned, settles it.
func (a *Attempt) complete(err error) {
	p, r := a.p, a.run
	a.run = nil
	p.attempts = append(p.attempts, a)
	if r == nil {
		return
	}
	r.cur = nil
	if p.cfg.Deadline > 0 {
		p.eng.Cancel(r.timer)
	}
	r.h.End()
	r.settle(err)
}

// completeEC counts a degraded read, abandoned or not, and marks the op
// degraded if it still observes the attempt.
func (a *Attempt) completeEC(needDecode bool, err error) {
	if needDecode {
		a.p.Counters.DegradedReads++
		if a.run != nil {
			a.run.needDecode = true
		}
	}
	a.complete(err)
}

// expire abandons the current attempt at its deadline.
func (r *retryRun) expire() {
	r.cur.run, r.cur = nil, nil
	r.h.End()
	r.p.Counters.DeadlineExceeded++
	r.settle(ErrDeadline)
}

// settle issues the next attempt after its backoff (a zero backoff issues
// it inline), or ends the op on success or once the retries are spent.
func (r *retryRun) settle(err error) {
	p := r.p
	if err != nil && r.try < p.cfg.MaxRetries {
		r.try++
		p.Counters.Retries++
		if d := Backoff(p.cfg.BackoffBase, p.cfg.BackoffCap, r.try-1, p.rng); d > 0 {
			p.eng.Schedule(d, r.next)
			return
		}
		r.issue()
		return
	}
	if r.write {
		if err == nil {
			p.Counters.WriteOK(p.eng.Now())
		} else {
			p.Counters.WriteFailed(r.start)
		}
	}
	x, nd := r.x, r.needDecode
	*r = retryRun{p: p, next: r.next, timeout: r.timeout}
	p.runs = append(p.runs, r)
	x.Finish(nd, err)
}
