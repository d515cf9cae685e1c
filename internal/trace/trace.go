// Package trace implements deterministic per-I/O span tracing for the
// simulated storage stacks.
//
// A Tracer is created per experiment cell; every simulation domain that
// wants to record spans registers a Sink (one span buffer per domain, read
// against that domain's engine clock). Sampled root operations receive a
// trace ID derived from the cell salt and the op's submit sequence
// number — never from wall clock — so the same (seed, cell) produces
// bit-identical traces at any `-parallel` setting and any shard count.
//
// Tracing is zero-cost when off in the strong sense required by the golden
// digests: it never schedules simulation events and never draws from any
// seeded RNG stream, so enabling it cannot perturb simulated time even by
// one event-ordering tiebreak. A disabled tracer (or an unsampled op)
// yields zero-valued Ref/H handles whose methods are cheap no-op checks.
package trace

import (
	"sort"

	"repro/internal/sim"
)

// Span cause kinds. A span with a non-empty Kind documents *why* it exists
// (it was caused by a fault-recovery action or background machinery), with
// Cause optionally naming the span that triggered it.
const (
	KindRetry    = "retry"
	KindFailover = "failover"
	KindDegraded = "degraded"
	KindFlush    = "writeback-flush"
	KindElection = "election"
)

// Config parameterizes a per-cell Tracer.
type Config struct {
	// SampleEvery samples every Nth root op by submit sequence (1 = every
	// op; 0 disables sampling entirely). Fault-scenario cells run with
	// SampleEvery=1 so every op touched by a fault is traced.
	SampleEvery int
	// Salt is mixed into trace IDs; derived from the cell identity so two
	// cells never collide and the IDs are stable across runs.
	Salt uint64
	// TopK is the number of slowest exemplar traces retained per cell
	// after Finalize (default 4).
	TopK int
	// MaxCause is the number of additional cause-linked traces (retry,
	// failover, degraded read, write-back flush) retained beyond the
	// slowest TopK (default 4).
	MaxCause int
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 4
	}
	if c.MaxCause < 0 {
		c.MaxCause = 0
	} else if c.MaxCause == 0 {
		c.MaxCause = 4
	}
	return c
}

// Ref is the trace context carried with an I/O through the pipeline and
// across shard boundaries. It is pure data — emitting a span additionally
// requires the local domain's Sink — so it may travel freely inside
// requests, SQEs and network messages. The zero Ref means "not sampled";
// every instrumentation site treats it as a no-op.
type Ref struct {
	Trace  uint64 // trace ID (0 = unsampled)
	Parent uint64 // parent span ID within the trace (0 = root)
}

// Sampled reports whether the op this Ref rides on is being traced.
func (r Ref) Sampled() bool { return r.Trace != 0 }

// Span is one recorded interval. IDs are globally unique within a Tracer:
// sinkIndex+1 in the high 32 bits, the per-sink append index+1 in the low
// 32 bits — both assigned deterministically.
type Span struct {
	ID     uint64
	Parent uint64 // parent span ID (0 = trace root)
	Trace  uint64
	Name   string
	Domain string // registering domain of the emitting sink
	Kind   string // "", or one of the Kind* cause kinds
	Cause  uint64 // span that triggered this one (0 = none)
	Start  sim.Time
	Dur    sim.Duration
	Wait   sim.Duration // queue-wait portion of Dur (service = Dur - Wait)
	// Tenant is the owning tenant of the traced I/O (0 = untenanted). Set
	// on root spans via SetTenant; per-tenant exemplar filtering keys on it.
	Tenant int
}

// End returns the span's end time.
func (s Span) End() sim.Time { return s.Start.Add(s.Dur) }

// Tracer owns the per-cell trace state. Each sink has one writer, its
// domain's events; Finalize must be called after the simulation has fully
// drained.
type Tracer struct {
	cfg   Config
	sinks []*Sink
}

// New creates a Tracer for one experiment cell.
func New(cfg Config) *Tracer {
	return &Tracer{cfg: cfg.withDefaults()}
}

// Sink registers a span buffer for one simulation domain. Call order
// assigns sink indices, so wiring must register sinks in a deterministic
// order (the testbed registers host first, then OSD-side domains).
func (t *Tracer) Sink(eng *sim.Engine, domain string) *Sink {
	if t == nil {
		return nil
	}
	s := &Sink{t: t, eng: eng, domain: domain, idx: uint64(len(t.sinks))}
	t.sinks = append(t.sinks, s)
	return s
}

// Sink is a single-writer span buffer bound to one simulation domain.
// All spans emitted through a sink read time from that domain's engine,
// which only the domain's own events advance — the same events that call
// into the sink.
type Sink struct {
	t      *Tracer
	eng    *sim.Engine
	domain string
	idx    uint64
	seq    uint64 // root op sequence counter (sampling basis)
	spans  []Span
}

// H is a handle to an open span. The zero H is a no-op (unsampled op or
// tracing disabled); all methods are safe on it.
type H struct {
	s *Sink
	i uint32 // local span index + 1; 0 = no-op
}

// On reports whether the handle refers to a live span.
func (h H) On() bool { return h.i != 0 }

// ID returns the span's global ID, or 0 for a no-op handle.
func (h H) ID() uint64 {
	if h.i == 0 {
		return 0
	}
	return h.s.id(h.i - 1)
}

// Ref returns the context for child spans of this span.
func (h H) Ref() Ref {
	if h.i == 0 {
		return Ref{}
	}
	sp := &h.s.spans[h.i-1]
	return Ref{Trace: sp.Trace, Parent: h.s.id(h.i - 1)}
}

// End closes the span at the sink's current simulated time.
func (h H) End() {
	if h.i == 0 {
		return
	}
	sp := &h.s.spans[h.i-1]
	sp.Dur = h.s.eng.Now().Sub(sp.Start)
}

// Wait records the queue-wait portion of the span as the time elapsed
// from the span's start to the sink's current simulated time. Call it at
// the moment the op stops waiting and starts being serviced.
func (h H) Wait() {
	if h.i == 0 {
		return
	}
	sp := &h.s.spans[h.i-1]
	sp.Wait = h.s.eng.Now().Sub(sp.Start)
}

// SetWait records an explicitly computed queue-wait portion.
func (h H) SetWait(w sim.Duration) {
	if h.i == 0 {
		return
	}
	h.s.spans[h.i-1].Wait = w
}

// SetTenant tags the span with its owning tenant (0 = untenanted).
func (h H) SetTenant(tenant int) {
	if h.i == 0 {
		return
	}
	h.s.spans[h.i-1].Tenant = tenant
}

// Link marks the span as caused by another span (retry, failover,
// degraded read, write-back flush).
func (h H) Link(kind string, cause uint64) {
	if h.i == 0 {
		return
	}
	sp := &h.s.spans[h.i-1]
	sp.Kind = kind
	sp.Cause = cause
}

func (s *Sink) id(local uint32) uint64 {
	return (s.idx+1)<<32 | uint64(local+1)
}

// Root begins a new root span for the next submitted op, applying the
// deterministic sampling policy. Must be called from the sink's own
// domain, in op submit order.
func (s *Sink) Root(name string) H {
	if s == nil {
		return H{}
	}
	s.seq++
	n := s.t.cfg.SampleEvery
	if n <= 0 || (s.seq-1)%uint64(n) != 0 {
		return H{}
	}
	tid := traceID(s.t.cfg.Salt, s.seq)
	return s.push(Span{Trace: tid, Name: name, Start: s.eng.Now()})
}

// Begin opens a child span under parent at the sink's current simulated
// time. Returns a no-op handle when the parent is unsampled or the sink
// is nil (tracing off).
func (s *Sink) Begin(parent Ref, name string) H {
	if s == nil || parent.Trace == 0 {
		return H{}
	}
	return s.push(Span{Trace: parent.Trace, Parent: parent.Parent, Name: name, Start: s.eng.Now()})
}

// Emit records a fully-formed retroactive span (used where start/wait were
// measured before the emitting site runs, e.g. blk-mq completion or OSD
// service accounting). Returns the span's global ID, or 0 when off.
func (s *Sink) Emit(parent Ref, name string, start sim.Time, dur, wait sim.Duration, kind string, cause uint64) uint64 {
	if s == nil || parent.Trace == 0 {
		return 0
	}
	h := s.push(Span{
		Trace: parent.Trace, Parent: parent.Parent, Name: name,
		Start: start, Dur: dur, Wait: wait, Kind: kind, Cause: cause,
	})
	return h.ID()
}

// Mark records an instantaneous cause-marker span at the sink's current
// simulated time (e.g. a replica failover decision). Returns the span's
// global ID, or 0 when off.
func (s *Sink) Mark(parent Ref, name, kind string, cause uint64) uint64 {
	if s == nil || parent.Trace == 0 {
		return 0
	}
	return s.Emit(parent, name, s.eng.Now(), 0, 0, kind, cause)
}

func (s *Sink) push(sp Span) H {
	local := uint32(len(s.spans))
	sp.ID = s.id(local)
	sp.Domain = s.domain
	s.spans = append(s.spans, sp)
	return H{s: s, i: local + 1}
}

// Ops returns the number of root ops seen by this sink (sampled or not).
func (s *Sink) Ops() uint64 {
	if s == nil {
		return 0
	}
	return s.seq
}

// traceID derives a deterministic trace ID from the cell salt and the
// op's submit sequence (FNV-1a over the 16 id bytes, forced nonzero).
func traceID(salt, seq uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (salt >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (seq >> (8 * i)) & 0xff
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Exemplar is one retained trace: a complete span tree for a sampled op,
// with its critical-path attribution.
type Exemplar struct {
	Trace uint64
	Root  uint64 // root span ID
	Dur   sim.Duration
	Cause bool // contains at least one cause-linked span
	Path  []PathShare
}

// Result is the finalized, pruned trace set for one cell.
type Result struct {
	Cell      string
	Ops       uint64 // root ops submitted (sampled or not)
	Sampled   int    // root spans recorded
	Spans     []Span // spans of retained traces, canonical (sink, append) order
	Exemplars []Exemplar
	CritPath  []PathShare // per-cell aggregation over exemplars, weighted by Dur
}

// Finalize merges the per-domain sinks in canonical order, selects the
// tail exemplars (top-K slowest plus cause-linked traces), prunes all
// other spans, and computes critical-path attributions. Must be called
// once, after the simulation has drained.
func (t *Tracer) Finalize(cell string) *Result {
	res := &Result{Cell: cell}
	var all []Span
	for _, s := range t.sinks {
		res.Ops += s.seq
		all = append(all, s.spans...)
	}

	// Index root spans and cause-linked traces.
	type troot struct {
		trace uint64
		root  uint64
		dur   sim.Duration
		cause bool
	}
	roots := map[uint64]*troot{}
	var order []uint64
	for i := range all {
		sp := &all[i]
		if sp.Parent == 0 {
			res.Sampled++
			if _, ok := roots[sp.Trace]; !ok {
				roots[sp.Trace] = &troot{trace: sp.Trace, root: sp.ID, dur: sp.Dur}
				order = append(order, sp.Trace)
			}
		}
	}
	for i := range all {
		if all[i].Kind != "" {
			if r, ok := roots[all[i].Trace]; ok {
				r.cause = true
			}
		}
	}

	// Rank: slowest first, trace ID as the deterministic tiebreak.
	ranked := make([]*troot, 0, len(order))
	for _, tid := range order {
		ranked = append(ranked, roots[tid])
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].dur != ranked[j].dur {
			return ranked[i].dur > ranked[j].dur
		}
		return ranked[i].trace < ranked[j].trace
	})

	keep := map[uint64]bool{}
	var chosen []*troot
	for _, r := range ranked {
		if len(chosen) >= t.cfg.TopK {
			break
		}
		keep[r.trace] = true
		chosen = append(chosen, r)
	}
	causeLeft := t.cfg.MaxCause
	for _, r := range ranked {
		if causeLeft == 0 {
			break
		}
		if r.cause && !keep[r.trace] {
			keep[r.trace] = true
			chosen = append(chosen, r)
			causeLeft--
		}
	}

	for i := range all {
		if keep[all[i].Trace] {
			res.Spans = append(res.Spans, all[i])
		}
	}

	// Exemplars in rank order: slowest of the chosen first.
	sort.Slice(chosen, func(i, j int) bool {
		if chosen[i].dur != chosen[j].dur {
			return chosen[i].dur > chosen[j].dur
		}
		return chosen[i].trace < chosen[j].trace
	})
	for _, r := range chosen {
		ex := Exemplar{Trace: r.trace, Root: r.root, Dur: r.dur, Cause: r.cause}
		ex.Path = CriticalPath(res.Spans, r.root)
		res.Exemplars = append(res.Exemplars, ex)
	}
	res.CritPath = aggregatePath(res.Exemplars)
	return res
}

// aggregatePath merges per-exemplar attributions into one per-cell table,
// weighting each exemplar by its absolute durations (so the slowest ops
// dominate, which is the point of tail exemplars).
func aggregatePath(exs []Exemplar) []PathShare {
	sums := map[string]sim.Duration{}
	var total sim.Duration
	var names []string
	for _, ex := range exs {
		for _, ps := range ex.Path {
			if _, ok := sums[ps.Name]; !ok {
				names = append(names, ps.Name)
			}
			sums[ps.Name] += ps.Dur
			total += ps.Dur
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]PathShare, 0, len(names))
	for _, n := range names {
		out = append(out, PathShare{Name: n, Dur: sums[n], Share: float64(sums[n]) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].Name < out[j].Name
	})
	return out
}
