package blockmq

import (
	"repro/internal/sim"
)

// This file holds the QoS schedulers the `qos-tbucket` / `qos-dmclock` stack
// axis selects: per-tenant rate control implemented as blk-mq elevators, so
// a hog tenant's backlog is shaped *before* it can monopolize hardware tags
// and the card. Both schedulers are pure functions of (virtual time, arrival
// order): no wall clock, no map-order iteration in any ordering decision, so
// a (seed, workload) pair replays bit-identically under -parallel.

// ThrottledScheduler extends Scheduler for elevators that can hold staged
// requests until a future virtual instant (token refill, tag maturity).
// When Next returns nil while requests remain staged, the MQ layer asks
// ReadyAt for the earliest instant a staged request becomes eligible and
// arms a deterministic re-kick timer for it.
type ThrottledScheduler interface {
	Scheduler
	// ReadyAt reports the earliest virtual time at which a staged request
	// for hctx becomes dispatchable; ok=false means nothing is staged.
	ReadyAt(hctx int) (sim.Time, bool)
}

// QoSStats counts scheduler-level QoS activity.
type QoSStats struct {
	// Dispatched counts requests released to dispatch.
	Dispatched uint64
	// Throttled counts dispatch attempts that found the head request (or
	// every staged request) ineligible and had to wait.
	Throttled uint64
	// ResPhase / WeightPhase split dmclock dispatches by the phase that
	// released them (reservation vs proportional-share); token-bucket
	// dispatches all count as WeightPhase.
	ResPhase    uint64
	WeightPhase uint64
}

// QoSReporter is implemented by schedulers that expose QoS accounting; the
// stack builder keeps a handle so experiments can read the counters after a
// run.
type QoSReporter interface {
	QoS() QoSStats
}

// ---------------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------------

// TokenBucketScheduler enforces a per-tenant byte-rate cap: each tenant owns
// a bucket refilled at Rate bytes/second up to Burst bytes, and a request
// dispatches only when its tenant's bucket covers its length. Requests stay
// FIFO per hardware context; a throttled head does not block eligible
// requests of other tenants behind it (deterministic in-order scan).
type TokenBucketScheduler struct {
	eng   *sim.Engine
	cost  sim.Duration
	rate  int64 // bytes per second granted to each tenant
	burst int64 // bucket capacity in bytes

	fifo    map[int][]*Request
	buckets map[int]*tbBucket

	// Stats is the QoS activity counter set.
	Stats QoSStats
}

type tbBucket struct {
	tokens int64    // whole bytes available
	frac   int64    // accumulated sub-byte credit, in byte/1e9 units
	last   sim.Time // last refill instant
}

// NewTokenBucketScheduler builds a token-bucket elevator. cost is the CPU
// charge per request; rate is the per-tenant refill in bytes/second; burst
// the bucket capacity in bytes.
func NewTokenBucketScheduler(eng *sim.Engine, cost sim.Duration, rate, burst int64) *TokenBucketScheduler {
	if rate < 1 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucketScheduler{
		eng:     eng,
		cost:    cost,
		rate:    rate,
		burst:   burst,
		fifo:    make(map[int][]*Request),
		buckets: make(map[int]*tbBucket),
	}
}

// Name implements Scheduler.
func (s *TokenBucketScheduler) Name() string { return "qos-tbucket" }

// QoS returns the scheduler's QoS accounting.
func (s *TokenBucketScheduler) QoS() QoSStats { return s.Stats }

// Cost implements Scheduler.
func (s *TokenBucketScheduler) Cost() sim.Duration { return s.cost }

// Insert implements Scheduler (FIFO staging, no merging: merged requests
// would blur per-tenant byte accounting).
func (s *TokenBucketScheduler) Insert(hctx int, req *Request) bool {
	s.fifo[hctx] = append(s.fifo[hctx], req)
	return false
}

// Pending implements Scheduler.
func (s *TokenBucketScheduler) Pending(hctx int) int { return len(s.fifo[hctx]) }

func (s *TokenBucketScheduler) bucket(tenant int) *tbBucket {
	b := s.buckets[tenant]
	if b == nil {
		b = &tbBucket{tokens: s.burst, last: s.eng.Now()}
		s.buckets[tenant] = b
	}
	return b
}

// refill credits tokens for the elapsed virtual time, in exact integer
// arithmetic (sub-byte remainders accumulate in frac, so no credit is ever
// lost or invented to rounding).
func (s *TokenBucketScheduler) refill(b *tbBucket, now sim.Time) {
	dt := int64(now.Sub(b.last))
	if dt <= 0 {
		return
	}
	b.last = now
	// A gap long enough to fill the bucket regardless short-circuits the
	// multiply (and any overflow risk on very long idle stretches).
	if full := (s.burst - b.tokens + 1) * 1e9 / s.rate; dt >= full {
		b.tokens = s.burst
		b.frac = 0
		return
	}
	total := s.rate*dt + b.frac
	b.tokens += total / 1e9
	b.frac = total % 1e9
	if b.tokens > s.burst {
		b.tokens = s.burst
		b.frac = 0
	}
}

// need is the token charge for one request, capped at the bucket capacity so
// an oversized request cannot deadlock.
func (s *TokenBucketScheduler) need(req *Request) int64 {
	n := int64(req.Len)
	if n < 1 {
		n = 1
	}
	if n > s.burst {
		n = s.burst
	}
	return n
}

// Next implements Scheduler: the first staged request (arrival order) whose
// tenant has tokens dispatches and is charged.
func (s *TokenBucketScheduler) Next(hctx int) *Request {
	q := s.fifo[hctx]
	now := s.eng.Now()
	for i, req := range q {
		b := s.bucket(req.IO.Tenant)
		s.refill(b, now)
		if need := s.need(req); b.tokens >= need {
			b.tokens -= need
			s.fifo[hctx] = append(q[:i], q[i+1:]...)
			s.Stats.Dispatched++
			s.Stats.WeightPhase++
			return req
		}
	}
	if len(q) > 0 {
		s.Stats.Throttled++
	}
	return nil
}

// ReadyAt implements ThrottledScheduler: the earliest instant any staged
// request's bucket covers its charge.
func (s *TokenBucketScheduler) ReadyAt(hctx int) (sim.Time, bool) {
	q := s.fifo[hctx]
	if len(q) == 0 {
		return 0, false
	}
	now := s.eng.Now()
	var best sim.Time
	for _, req := range q {
		b := s.bucket(req.IO.Tenant)
		s.refill(b, now)
		deficit := s.need(req) - b.tokens
		if deficit <= 0 {
			return now, true
		}
		// Time to accumulate `deficit` bytes at rate bytes/sec, counting the
		// fractional credit already banked.
		ns := (deficit*1e9 - b.frac + s.rate - 1) / s.rate
		at := now.Add(sim.Duration(ns))
		if best == 0 || at < best {
			best = at
		}
	}
	return best, true
}

// ---------------------------------------------------------------------------
// dmClock
// ---------------------------------------------------------------------------

// DMClockParams shapes one tenant class for the DMClockScheduler: an mClock
// (reservation, limit, weight) triple in IOPS terms. Reservation is the
// guaranteed floor (requests below it dispatch regardless of load), Limit
// the hard ceiling (0 = uncapped), Weight the proportional share of slack.
type DMClockParams struct {
	ReservationIOPS float64
	LimitIOPS       float64
	Weight          float64
	// CostBlock, when > 0, normalizes the IOPS terms by request size: a
	// request charges ceil(Len/CostBlock) tag units, so a 256 KiB op at
	// CostBlock 4096 consumes 64× the budget of a 4 KiB one (the cost model
	// Ceph's OSD mclock uses). 0 charges every request one unit, making the
	// limit trivially escapable with large blocks.
	CostBlock int
}

// DMClockScheduler is an mClock-style tag scheduler: every arriving request
// is stamped with reservation/limit/proportional tags advanced per tenant,
// and dispatch serves the reservation-constrained request set first, then
// distributes slack by weight among limit-eligible requests. One hog tenant
// queueing deep backlogs pushes its own tags into the future; a sparse
// victim's fresh arrivals tag near now and dispatch ahead of the backlog.
type DMClockScheduler struct {
	eng  *sim.Engine
	cost sim.Duration
	// Tag spacings derived from DMClockParams (0 = unconstrained).
	resGap    sim.Duration
	limGap    sim.Duration
	wGap      sim.Duration
	costBlock int64

	queues  map[int][]dmEntry
	tenants map[int]*dmTenant
	seq     uint64

	// Stats is the QoS activity counter set.
	Stats QoSStats
}

type dmTenant struct {
	lastR sim.Time
	lastL sim.Time
	lastP sim.Time
}

type dmEntry struct {
	req     *Request
	r, l, p sim.Time
	seq     uint64
}

// NewDMClockScheduler builds an mClock-style scheduler with one parameter
// class applied to every tenant (per-tenant classes would need a control
// plane; equal classes already give the isolation the QoS axis measures).
func NewDMClockScheduler(eng *sim.Engine, cost sim.Duration, params DMClockParams) *DMClockScheduler {
	gap := func(iops float64) sim.Duration {
		if iops <= 0 {
			return 0
		}
		return sim.Duration(1e9 / iops)
	}
	w := params.Weight
	if w <= 0 {
		w = 1
	}
	return &DMClockScheduler{
		eng:       eng,
		cost:      cost,
		resGap:    gap(params.ReservationIOPS),
		limGap:    gap(params.LimitIOPS),
		wGap:      sim.Duration(float64(sim.Microsecond) / w),
		costBlock: int64(params.CostBlock),
		queues:    make(map[int][]dmEntry),
		tenants:   make(map[int]*dmTenant),
	}
}

// Name implements Scheduler.
func (s *DMClockScheduler) Name() string { return "qos-dmclock" }

// QoS returns the scheduler's QoS accounting.
func (s *DMClockScheduler) QoS() QoSStats { return s.Stats }

// Cost implements Scheduler.
func (s *DMClockScheduler) Cost() sim.Duration { return s.cost }

// Pending implements Scheduler.
func (s *DMClockScheduler) Pending(hctx int) int { return len(s.queues[hctx]) }

// tag advances prev by gap, floored at now (an idle tenant's tags restart
// from the present instead of banking unused history).
func tag(now, prev sim.Time, gap sim.Duration) sim.Time {
	t := prev.Add(gap)
	if t < now {
		return now
	}
	return t
}

// Insert implements Scheduler: stamp the request's mClock tags and stage it.
func (s *DMClockScheduler) Insert(hctx int, req *Request) bool {
	tn := s.tenants[req.IO.Tenant]
	if tn == nil {
		tn = &dmTenant{}
		s.tenants[req.IO.Tenant] = tn
	}
	now := s.eng.Now()
	e := dmEntry{req: req, seq: s.seq}
	s.seq++
	units := sim.Duration(1)
	if s.costBlock > 0 {
		if u := (int64(req.Len) + s.costBlock - 1) / s.costBlock; u > 1 {
			units = sim.Duration(u)
		}
	}
	if s.resGap > 0 {
		e.r = tag(now, tn.lastR, s.resGap*units)
		tn.lastR = e.r
	}
	if s.limGap > 0 {
		e.l = tag(now, tn.lastL, s.limGap*units)
		tn.lastL = e.l
	}
	e.p = tag(now, tn.lastP, s.wGap*units)
	tn.lastP = e.p
	s.queues[hctx] = append(s.queues[hctx], e)
	return false
}

// Next implements Scheduler: reservation phase first (min R tag ≤ now), then
// the weight phase (min P tag among limit-eligible requests). Ties break on
// arrival sequence, so equal tags replay identically.
func (s *DMClockScheduler) Next(hctx int) *Request {
	q := s.queues[hctx]
	if len(q) == 0 {
		return nil
	}
	now := s.eng.Now()
	// Reservation phase: the guaranteed floor ignores limits and weights.
	best := -1
	for i, e := range q {
		if s.resGap == 0 || e.r > now {
			continue
		}
		if best < 0 || e.r < q[best].r || (e.r == q[best].r && e.seq < q[best].seq) {
			best = i
		}
	}
	if best >= 0 {
		s.Stats.ResPhase++
		return s.take(hctx, best)
	}
	// Weight phase: distribute slack by proportional tag among requests
	// whose limit tag has matured.
	for i, e := range q {
		if e.l > now {
			continue
		}
		if best < 0 || e.p < q[best].p || (e.p == q[best].p && e.seq < q[best].seq) {
			best = i
		}
	}
	if best >= 0 {
		s.Stats.WeightPhase++
		return s.take(hctx, best)
	}
	s.Stats.Throttled++
	return nil
}

func (s *DMClockScheduler) take(hctx, i int) *Request {
	q := s.queues[hctx]
	req := q[i].req
	s.queues[hctx] = append(q[:i], q[i+1:]...)
	s.Stats.Dispatched++
	return req
}

// ReadyAt implements ThrottledScheduler: the earliest maturing reservation
// or limit tag among staged requests.
func (s *DMClockScheduler) ReadyAt(hctx int) (sim.Time, bool) {
	q := s.queues[hctx]
	if len(q) == 0 {
		return 0, false
	}
	now := s.eng.Now()
	var best sim.Time
	for _, e := range q {
		at := e.l
		if at < now {
			at = now // unlimited or already-matured limit tag
		}
		if s.resGap > 0 && e.r < at {
			at = e.r
			if at < now {
				at = now
			}
		}
		if best == 0 || at < best {
			best = at
		}
	}
	return best, true
}
