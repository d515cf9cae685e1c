package rados

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// step scripts one attempt: it completes after `after` (inside Issue when
// sync is set, never when lost is set) with err, through DoneEC when ec
// is set.
type step struct {
	after      sim.Duration
	sync, lost bool
	ec, decode bool
	err        error
}

// script is an Attempter whose attempts follow steps, one per try.
type script struct {
	eng   *sim.Engine
	steps []step

	tries    []int
	issuedAt []sim.Duration
	events   []uint64 // Engine.Executed at each Issue
	trs      []trace.Ref

	finished   int
	err        error
	needDecode bool
	at         sim.Duration
}

func (s *script) Issue(a *Attempt, try int, tr trace.Ref) {
	s.tries = append(s.tries, try)
	s.issuedAt = append(s.issuedAt, s.eng.Now().Sub(0))
	s.events = append(s.events, s.eng.Executed())
	s.trs = append(s.trs, tr)
	st := s.steps[try]
	complete := func() {
		if st.ec {
			a.DoneEC(st.decode, st.err)
			return
		}
		a.Done(st.err)
	}
	switch {
	case st.lost:
	case st.sync:
		complete()
	default:
		s.eng.Schedule(st.after, complete)
	}
}

func (s *script) Finish(needDecode bool, err error) {
	s.finished++
	s.needDecode, s.err, s.at = needDecode, err, s.eng.Now().Sub(0)
}

var errAttempt = errors.New("attempt failed")

// TestRetryLateResultAfterReuseDropped abandons op A's first attempt at its
// deadline; A then succeeds on its retry and its run is recycled and
// reused by op B. A's abandoned attempt reports late, while B is still in
// flight: the driver must drop it, so neither op sees it, though its
// degraded read still counts.
func TestRetryLateResultAfterReuseDropped(t *testing.T) {
	eng := sim.NewEngine()
	us := sim.Microsecond
	p := NewRetryPolicy(eng, RetryConfig{Deadline: 100 * us, MaxRetries: 1, BackoffBase: 10 * us, BackoffCap: 10 * us})
	a := &script{eng: eng, steps: []step{
		{after: 200 * us, ec: true, decode: true, err: errAttempt}, // abandoned at 100 µs, reports at 200 µs
		{after: 10 * us},
	}}
	b := &script{eng: eng, steps: []step{{after: 90 * us, ec: true}}}
	eng.Schedule(0, func() { p.Run(a, false, nil, "attempt", trace.Ref{}) })
	eng.Schedule(125*us, func() {
		if len(p.runs) != 1 {
			t.Errorf("%d pooled runs after A finished, want 1", len(p.runs))
		}
		p.Run(b, false, nil, "attempt", trace.Ref{})
		if len(p.runs) != 0 {
			t.Error("B did not reuse A's run")
		}
	})
	eng.Run()
	if a.finished != 1 || a.err != nil || a.at != 120*us || a.needDecode {
		t.Errorf("A: finished %d times, last at %v with (%t, %v); want once at 120µs with (false, nil)", a.finished, a.at, a.needDecode, a.err)
	}
	if b.finished != 1 || b.err != nil || b.at != 215*us || b.needDecode {
		t.Errorf("B: finished %d times, last at %v with (%t, %v); want once at 215µs with (false, nil)", b.finished, b.at, b.needDecode, b.err)
	}
	c := p.Counters
	if c.DeadlineExceeded != 1 || c.Retries != 1 || c.DegradedReads != 1 {
		t.Errorf("counters = %+v, want 1 deadline, 1 retry, 1 degraded read", c)
	}
	// Every attempt is back in the pool, the late one included, and
	// nothing is left queued.
	if len(p.attempts) != 2 || eng.Pending() != 0 {
		t.Errorf("%d pooled attempts and %d pending events, want 2 and 0", len(p.attempts), eng.Pending())
	}
}

// TestRetryExhaustionOpensStall fails every attempt of a write: the op
// reports the last attempt's error after MaxRetries re-issues, and the
// stall window it opens is backdated to the op's start.
func TestRetryExhaustionOpensStall(t *testing.T) {
	eng := sim.NewEngine()
	us := sim.Microsecond
	p := NewRetryPolicy(eng, RetryConfig{Deadline: sim.Millisecond, MaxRetries: 2, BackoffBase: 5 * us, BackoffCap: 5 * us})
	last := errors.New("last attempt failed")
	s := &script{eng: eng, steps: []step{
		{after: 10 * us, err: errAttempt},
		{after: 10 * us, err: errAttempt},
		{after: 10 * us, err: last},
	}}
	eng.Schedule(50*us, func() { p.Run(s, true, nil, "attempt", trace.Ref{}) })
	eng.Run()
	if s.finished != 1 || s.err != last || s.at != 90*us {
		t.Fatalf("finished %d times, last at %v with %v; want once at 90µs with %v", s.finished, s.at, s.err, last)
	}
	c := &p.Counters
	if c.Retries != 2 || c.WriteStalls != 1 {
		t.Errorf("counters = %+v, want 2 retries and 1 stall", *c)
	}
	c.CloseStalls(eng.Now())
	if c.StallTotal != 40*us {
		t.Errorf("stall = %v, want 40µs (from the op's start at 50µs)", c.StallTotal)
	}
}

// TestRetryNoDeadlineArmsNoTimer runs with Deadline 0: an attempt may take
// as long as it likes, and the only queued event is its own completion.
func TestRetryNoDeadlineArmsNoTimer(t *testing.T) {
	eng := sim.NewEngine()
	p := NewRetryPolicy(eng, RetryConfig{MaxRetries: 4, BackoffBase: 50 * sim.Microsecond, BackoffCap: 2 * sim.Millisecond})
	s := &script{eng: eng, steps: []step{{after: sim.Second}}}
	p.Run(s, false, nil, "attempt", trace.Ref{})
	if n := eng.Pending(); n != 1 {
		t.Fatalf("%d events pending after issue, want 1 (no deadline timer)", n)
	}
	eng.Run()
	if s.finished != 1 || s.err != nil || p.Counters.DeadlineExceeded != 0 {
		t.Errorf("finished %d times with %v, %d deadlines; want once with nil, 0", s.finished, s.err, p.Counters.DeadlineExceeded)
	}
}

// TestRetryZeroBackoffInline re-issues inside the failed attempt's own
// event when the backoff is zero.
func TestRetryZeroBackoffInline(t *testing.T) {
	eng := sim.NewEngine()
	p := NewRetryPolicy(eng, RetryConfig{MaxRetries: 1})
	s := &script{eng: eng, steps: []step{{after: 10 * sim.Microsecond, err: errAttempt}, {after: 10 * sim.Microsecond}}}
	p.Run(s, false, nil, "attempt", trace.Ref{})
	eng.Run()
	if s.finished != 1 || s.err != nil {
		t.Fatalf("finished %d times with %v, want once with nil", s.finished, s.err)
	}
	// The retry is issued at the failure's instant, in the event that
	// delivered it (the first completion is event 1).
	if s.issuedAt[1] != 10*sim.Microsecond || s.events[1] != 1 {
		t.Errorf("retry issued at %v after %d events, want 10µs after 1", s.issuedAt[1], s.events[1])
	}
}

// TestRetrySyncFailureCancelsTimer fails the first attempt inside Issue:
// the deadline timer that attempt armed must be cancelled, not left to
// fire on a finished run.
func TestRetrySyncFailureCancelsTimer(t *testing.T) {
	eng := sim.NewEngine()
	us := sim.Microsecond
	p := NewRetryPolicy(eng, RetryConfig{Deadline: sim.Millisecond, MaxRetries: 1, BackoffBase: 10 * us, BackoffCap: 10 * us})
	s := &script{eng: eng, steps: []step{{sync: true, err: errAttempt}, {sync: true}}}
	p.Run(s, false, nil, "attempt", trace.Ref{})
	if n := eng.Pending(); n != 1 {
		t.Fatalf("%d events pending after a synchronous failure, want 1 (the backoff)", n)
	}
	eng.Run()
	if s.finished != 1 || s.err != nil || s.at != 10*us {
		t.Fatalf("finished %d times at %v with %v, want once at 10µs with nil", s.finished, s.at, s.err)
	}
	if eng.Now().Sub(0) != 10*us || p.Counters.DeadlineExceeded != 0 {
		t.Errorf("engine ran to %v with %d deadlines, want 10µs and 0", eng.Now(), p.Counters.DeadlineExceeded)
	}
}

// TestRetryAttemptSpansChain traces an op whose first attempt is
// abandoned and whose second fails: each attempt gets a span under the
// op's parent, is issued under it, and cause-links to the one it
// replaces.
func TestRetryAttemptSpansChain(t *testing.T) {
	eng := sim.NewEngine()
	us := sim.Microsecond
	tr := trace.New(trace.Config{SampleEvery: 1, Salt: 1})
	sink := tr.Sink(eng, "host")
	p := NewRetryPolicy(eng, RetryConfig{Deadline: 100 * us, MaxRetries: 2, BackoffBase: 10 * us, BackoffCap: 10 * us})
	s := &script{eng: eng, steps: []step{{lost: true}, {after: 5 * us, err: errAttempt}, {after: 5 * us}}}
	root := sink.Root("op")
	p.Run(s, false, sink, "test-attempt", root.Ref())
	eng.Run()
	root.End()
	if s.finished != 1 || s.err != nil {
		t.Fatalf("finished %d times with %v, want once with nil", s.finished, s.err)
	}
	var spans []trace.Span
	for _, sp := range tr.Finalize("retry").Spans {
		if sp.Name == "test-attempt" {
			spans = append(spans, sp)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("%d attempt spans, want 3", len(spans))
	}
	ends := []sim.Duration{100 * us, 115 * us, 130 * us}
	for i, sp := range spans {
		if sp.Parent != root.ID() || s.trs[i].Parent != sp.ID {
			t.Errorf("attempt %d: span parent %x, issued under %x; want %x and its own span %x", i, sp.Parent, s.trs[i].Parent, root.ID(), sp.ID)
		}
		if sp.End().Sub(0) != ends[i] {
			t.Errorf("attempt %d: span ends at %v, want %v", i, sp.End(), ends[i])
		}
		want := fmt.Sprintf("%s/%x", trace.KindRetry, spans[max(i-1, 0)].ID)
		if i == 0 {
			want = "/0"
		}
		if got := fmt.Sprintf("%s/%x", sp.Kind, sp.Cause); got != want {
			t.Errorf("attempt %d: link %s, want %s", i, got, want)
		}
	}
}
func TestBackoffWithinBounds(t *testing.T) {
	base := 50 * sim.Microsecond
	cap := 2 * sim.Millisecond
	rng := sim.NewRNG(7)
	for attempt := 0; attempt < 40; attempt++ {
		for i := 0; i < 200; i++ {
			d := Backoff(base, cap, attempt, rng)
			if d < base || d > cap {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base, cap)
			}
		}
	}
}

func TestBackoffReproduciblePerSeed(t *testing.T) {
	base := 10 * sim.Microsecond
	cap := sim.Millisecond
	for _, seed := range []uint64{1, 7, 42} {
		a, b := sim.NewRNG(seed), sim.NewRNG(seed)
		for attempt := 0; attempt < 16; attempt++ {
			da, db := Backoff(base, cap, attempt, a), Backoff(base, cap, attempt, b)
			if da != db {
				t.Fatalf("seed %d attempt %d: %v != %v", seed, attempt, da, db)
			}
		}
	}
}

func TestBackoffNilRNGIsUpperEdge(t *testing.T) {
	base := 10 * sim.Microsecond
	cap := 80 * sim.Microsecond
	want := []sim.Duration{base, 2 * base, 4 * base, cap, cap}
	for attempt, w := range want {
		if got := Backoff(base, cap, attempt, nil); got != w {
			t.Fatalf("attempt %d: got %v want %v", attempt, got, w)
		}
	}
}

func FuzzBackoff(f *testing.F) {
	f.Add(int64(10_000), int64(1_000_000), 3, uint64(1))
	f.Add(int64(0), int64(0), 0, uint64(0))
	f.Add(int64(1), int64(1<<62), 63, uint64(99))
	f.Add(int64(-5), int64(-9), 100, uint64(7))
	f.Fuzz(func(t *testing.T, base, cp int64, attempt int, seed uint64) {
		b, c := sim.Duration(base), sim.Duration(cp)
		rng := sim.NewRNG(seed)
		got := Backoff(b, c, attempt, rng)
		// Normalised bounds mirror the function's clamping.
		lo := b
		if lo < 0 {
			lo = 0
		}
		hi := c
		if hi < lo {
			hi = lo
		}
		if got < lo || got > hi {
			t.Fatalf("Backoff(%d, %d, %d) = %v outside [%v, %v]", base, cp, attempt, got, lo, hi)
		}
		// The jittered value never exceeds the deterministic upper edge.
		if edge := Backoff(b, c, attempt, nil); got > edge {
			t.Fatalf("jitter %v above nil-rng edge %v", got, edge)
		}
		// Same seed replays the same delay.
		if again := Backoff(b, c, attempt, sim.NewRNG(seed)); again != got {
			t.Fatalf("not reproducible: %v then %v", got, again)
		}
	})
}

func ExampleBackoff() {
	rng := sim.NewRNG(1)
	for attempt := 0; attempt < 4; attempt++ {
		d := Backoff(100*sim.Microsecond, sim.Millisecond, attempt, rng)
		fmt.Println(d >= 100*sim.Microsecond && d <= sim.Millisecond)
	}
	// Output:
	// true
	// true
	// true
	// true
}
