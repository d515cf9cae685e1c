package iouring

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// jitterTarget completes each request after a latency keyed on its offset,
// so completions interleave across submissions and several land at once.
type jitterTarget struct{ eng *sim.Engine }

func (j jitterTarget) Submit(req Request, complete func(res int32)) {
	j.eng.Schedule(sim.Duration(req.Off%5)*sim.Microsecond, func() { complete(int32(req.Len)) })
}

// reapTrace runs one workload on a fresh ring and returns every reap as
// (time, user data) plus the engine's event count. With proc set, a
// process loops on WaitCQE; otherwise the ring's SetReaper drain reaps.
// Every third CQE submits a follow-up SQE from inside the reap, as a
// closed-loop application does.
func reapTrace(t *testing.T, mode Mode, proc bool) ([][2]int64, uint64) {
	t.Helper()
	eng := sim.NewEngine()
	r, err := Setup(eng, Params{Entries: 64, Mode: mode}, jitterTarget{eng})
	if err != nil {
		t.Fatal(err)
	}
	var trace [][2]int64
	next := uint64(100)
	submit := func(ud uint64) {
		sqe := r.GetSQE()
		if sqe == nil {
			t.Fatal("SQ full")
		}
		sqe.Op, sqe.Off, sqe.Len, sqe.UserData = OpRead, int64(ud), 512, ud
		r.Enter()
	}
	reap := func(cqe CQE) {
		trace = append(trace, [2]int64{int64(eng.Now()), int64(cqe.UserData)})
		if cqe.UserData%3 == 0 && next < 130 {
			next++
			submit(next)
		}
	}
	if proc {
		eng.Spawn("reaper", func(p *sim.Proc) {
			for {
				cqe, err := r.WaitCQE(p)
				if err != nil {
					return
				}
				reap(cqe)
			}
		})
	} else {
		r.SetReaper(reap)
	}
	for b := 0; b < 6; b++ {
		eng.Schedule(sim.Duration(b)*3*sim.Microsecond, func() {
			for k := 0; k < 5; k++ {
				submit(uint64(b*5 + k))
			}
		})
	}
	eng.Run()
	r.Close()
	eng.Run()
	return trace, eng.Executed()
}

// TestReaperMatchesWaitCQE pins the CQE-drain reaper to the process it
// replaces: in SQPOLL and interrupt mode, every CQE is reaped at the same
// instant and in the same order as by a process looping on WaitCQE, and
// the only events the drain does without are the process's own start and
// its exit at Close (a wakeup, plus the wakeup sleep in interrupt mode).
func TestReaperMatchesWaitCQE(t *testing.T) {
	for _, mode := range []Mode{SQPollMode, InterruptMode} {
		t.Run(mode.String(), func(t *testing.T) {
			want, wantEvents := reapTrace(t, mode, true)
			got, gotEvents := reapTrace(t, mode, false)
			if len(want) < 40 {
				t.Fatalf("workload reaped only %d CQEs", len(want))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("drain reaper diverged from the WaitCQE process:\n got %v\nwant %v", got, want)
			}
			fewer := uint64(2)
			if mode == InterruptMode {
				fewer = 3
			}
			if gotEvents+fewer != wantEvents {
				t.Errorf("drain reaper ran %d events, the process %d; want %d fewer", gotEvents, wantEvents, fewer)
			}
		})
	}
}
