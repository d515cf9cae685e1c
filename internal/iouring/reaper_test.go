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

// reapTrace runs one workload on a fresh ring, reaped by its SetReaper
// drain, and returns every reap as (time, user data) plus the engine's
// event count. Every third CQE submits a follow-up SQE from inside the
// reap, as a closed-loop application does.
func reapTrace(t *testing.T, mode Mode) ([][2]int64, uint64) {
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
		r.Enter(nil)
	}
	r.SetReaper(func(cqe CQE) {
		trace = append(trace, [2]int64{int64(eng.Now()), int64(cqe.UserData)})
		if cqe.UserData%3 == 0 && next < 130 {
			next++
			submit(next)
		}
	})
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

// waitCQETrace is what a process looping on a blocking WaitCQE (wake one
// Schedule(0) after the post, then the WakeupCost sleep in interrupt mode)
// reaped on reapTrace's workload, as (ns, user data), and its event count.
var waitCQETrace = map[Mode]struct {
	reaps  [][2]int64
	events uint64
}{
	SQPollMode: {[][2]int64{
		{400, 0}, {1400, 1}, {1800, 101}, {2400, 2}, {3400, 3}, {3400, 5},
		{4400, 4}, {4400, 6}, {5400, 7}, {5800, 102}, {6200, 10}, {6400, 8},
		{7200, 11}, {7400, 9}, {7800, 103}, {7800, 105}, {8200, 12}, {9200, 13},
		{9200, 106}, {9400, 15}, {10200, 104}, {10200, 14}, {10400, 16}, {10600, 107},
		{11400, 17}, {12400, 18}, {12400, 20}, {12800, 108}, {13200, 110}, {13400, 19},
		{13400, 21}, {14400, 22}, {14800, 111}, {15200, 25}, {15400, 23}, {16200, 26},
		{16400, 24}, {16800, 109}, {17200, 112}, {17200, 27}, {18200, 28}, {19200, 29},
		{19800, 113}, {21600, 114}, {22000, 115},
	}, 112},
	InterruptMode: {[][2]int64{
		{2950, 0}, {2950, 1}, {5200, 2}, {5200, 5}, {5200, 3}, {6900, 101},
		{6900, 6}, {6900, 4}, {6900, 10}, {8450, 7}, {8450, 102}, {8450, 8},
		{9950, 11}, {9950, 9}, {9950, 15}, {9950, 12}, {11850, 16}, {11850, 13},
		{11850, 105}, {11850, 103}, {11850, 17}, {11850, 106}, {13450, 14}, {13450, 18},
		{13450, 107}, {13450, 20}, {13450, 104}, {15400, 19}, {15400, 21}, {15400, 108},
		{17200, 22}, {17200, 25}, {17200, 110}, {17200, 23}, {17200, 26}, {19200, 111},
		{19200, 27}, {19200, 24}, {19200, 109}, {19200, 28}, {21400, 29}, {24150, 112},
		{24150, 113}, {26400, 114}, {29350, 115},
	}, 127},
}

// TestReaperMatchesWaitCQE pins the CQE-drain reaper to the blocking
// WaitCQE process it replaced: in SQPOLL and interrupt mode, every CQE is
// reaped at the same instant and in the same order as that process did,
// and the only events the drain does without are the process's own start
// and its exit at Close (a wakeup, plus the wakeup sleep in interrupt
// mode).
func TestReaperMatchesWaitCQE(t *testing.T) {
	for _, mode := range []Mode{SQPollMode, InterruptMode} {
		t.Run(mode.String(), func(t *testing.T) {
			want := waitCQETrace[mode]
			got, gotEvents := reapTrace(t, mode)
			if !slices.Equal(got, want.reaps) {
				t.Fatalf("drain reaper diverged from the WaitCQE process:\n got %v\nwant %v", got, want.reaps)
			}
			fewer := uint64(2)
			if mode == InterruptMode {
				fewer = 3
			}
			if gotEvents+fewer != want.events {
				t.Errorf("drain reaper ran %d events, the process %d; want %d fewer", gotEvents, want.events, fewer)
			}
		})
	}
}
