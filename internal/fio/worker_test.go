package fio

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// submission is one op as a stack saw it, tenant aside.
type submission struct {
	op  core.OpType
	off int64
	n   int
	cpu int
}

// recordingStack is a core.Stack that records every submission and
// completes each op as a scheduled event, after a latency that varies with
// the offset so completions reorder; onDone runs inside each completion.
type recordingStack struct {
	eng    *sim.Engine
	subs   []submission
	onDone func()
}

func (s *recordingStack) Name() string { return "recording" }

func (s *recordingStack) Submit(op core.OpType, pattern core.Pattern, off int64, n int, cpu int, done func(error)) {
	s.SubmitTenant(op, pattern, off, n, cpu, 0, done)
}

func (s *recordingStack) SubmitTenant(op core.OpType, _ core.Pattern, off int64, n int, cpu, _ int, done func(error)) {
	s.subs = append(s.subs, submission{op: op, off: off, n: n, cpu: cpu})
	lat := 10*sim.Microsecond + sim.Duration(off/4096%7)*sim.Microsecond
	s.eng.Schedule(lat, func() {
		if s.onDone != nil {
			s.onDone()
		}
		done(nil)
	})
}

func (s *recordingStack) ImageBytes() int64 { return 64 << 20 }

func (s *recordingStack) Close() {}

// TestRunsNoProcs checks that fio's closed loop runs every op as an event
// chain and leaves no event pending, in Run (sequential, with think time)
// and in RunTenants (three tenants and a hog).
func TestRunsNoProcs(t *testing.T) {
	newStack := func() (*sim.Engine, *recordingStack, *int) {
		eng := sim.NewEngine()
		completions := 0
		s := &recordingStack{eng: eng}
		s.onDone = func() { completions++ }
		return eng, s, &completions
	}

	eng, s, completions := newStack()
	res, err := Run(eng, s, JobSpec{
		Name: "seq-think", ReadPct: 50, Pattern: core.Seq, BlockSize: 4096,
		QueueDepth: 4, Jobs: 2, Ops: 40, RampOps: 5,
		ThinkTime: 3 * sim.Microsecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if *completions != 90 || res.Lat.Count() != 80 || eng.Pending() != 0 {
		t.Fatalf("Run completed %d ops (%d measured) and left %d events, want 90 (80) and 0",
			*completions, res.Lat.Count(), eng.Pending())
	}

	eng, s, completions = newStack()
	tr, err := RunTenants(eng, s, TenantJob{
		Job: JobSpec{
			Name: "tenants", ReadPct: 70, Pattern: core.Rand, BlockSize: 4096,
			QueueDepth: 8, Jobs: 2, Ops: 30, Seed: 8,
		},
		Tenants: 3, Hog: 3, HogDepth: 16, HogOps: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if *completions != 110 || tr.PerTenant.Hist(3).Count() != 50 || eng.Pending() != 0 {
		t.Fatalf("RunTenants completed %d ops (%d hog) and left %d events, want 110 (50) and 0",
			*completions, tr.PerTenant.Hist(3).Count(), eng.Pending())
	}
}

// TestTenantStreamMatchesRun checks that a single-tenant RunTenants
// without a hog submits exactly Run's (op, offset, size, cpu) stream.
func TestTenantStreamMatchesRun(t *testing.T) {
	base := JobSpec{
		ReadPct: 70, BlockSize: 4096, QueueDepth: 4, Jobs: 2,
		Ops: 60, RampOps: 6, Seed: 11,
	}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"hot90", func(s *JobSpec) {
			s.Pattern, s.HotOpPct, s.HotRangeBytes = core.Rand, 90, 1<<20
		}},
		{"zipf", func(s *JobSpec) { s.Pattern, s.ZipfTheta = core.Rand, 0.99 }},
		{"seq", func(s *JobSpec) { s.Pattern = core.Seq }},
		{"bssplit", func(s *JobSpec) {
			s.Pattern = core.Rand
			s.BlockSplit = []SizeWeight{{4096, 70}, {65536, 30}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := base
			spec.Name = c.name
			c.mutate(&spec)

			eng := sim.NewEngine()
			run := &recordingStack{eng: eng}
			if _, err := Run(eng, run, spec); err != nil {
				t.Fatal(err)
			}
			eng = sim.NewEngine()
			ten := &recordingStack{eng: eng}
			if _, err := RunTenants(eng, ten, TenantJob{Job: spec, Tenants: 1}); err != nil {
				t.Fatal(err)
			}
			if want := spec.Jobs * (spec.RampOps + spec.Ops); len(run.subs) != want {
				t.Fatalf("Run submitted %d ops, want %d", len(run.subs), want)
			}
			if len(ten.subs) != len(run.subs) {
				t.Fatalf("RunTenants submitted %d ops, Run %d", len(ten.subs), len(run.subs))
			}
			for i := range run.subs {
				if run.subs[i] != ten.subs[i] {
					t.Fatalf("streams diverge at op %d: Run %+v, RunTenants %+v", i, run.subs[i], ten.subs[i])
				}
			}
		})
	}
}
