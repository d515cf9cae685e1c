package blockmq

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// lifetimeDevice issues requests like fakeDevice and tracks, per request
// pointer, the callbacks still owed by its current use: a pointer the MQ
// hands out again while its earlier use still owes a callback was recycled
// too early.
type lifetimeDevice struct {
	t       *testing.T
	eng     *sim.Engine
	latency sim.Duration
	// owed maps an issued request to its range and its callbacks not yet
	// fired; every submission has its own 4 KiB slot, so the ranges of
	// requests in flight are disjoint.
	owed map[*Request]*owedReq
}

type owedReq struct {
	off, end int64
	pending  int
}

func (d *lifetimeDevice) QueueRq(hctx int, req *Request) bool {
	if o := d.owed[req]; o != nil {
		d.t.Errorf("request %p issued again with %d callbacks of its last use unfired", req, o.pending)
	}
	d.owed[req] = &owedReq{off: req.Off, end: req.Off + int64(req.Len), pending: req.MergedBios()}
	d.eng.Schedule(d.latency, func() { req.EndIO(nil) })
	return true
}

// fired accounts one callback of the submission at off against the request
// that carried it.
func (d *lifetimeDevice) fired(off int64) {
	for req, o := range d.owed {
		if off >= o.off && off < o.end {
			if o.pending--; o.pending == 0 {
				delete(d.owed, req)
			}
			return
		}
	}
	d.t.Errorf("callback for offset %d fired with no issued request covering it", off)
}

// TestRequestPoolLifetime drives bursts of contiguous writes and reads
// through mq-deadline (so back and front merges make one request carry
// several callbacks) and through qos-dmclock, submitting from events while
// earlier requests complete so pooled requests are reused. Every callback
// must fire exactly once, and no request may be handed out again — from
// Submit or to the driver — before all the callbacks it carries have run.
func TestRequestPoolLifetime(t *testing.T) {
	for _, kind := range []string{"mq-deadline", "qos-dmclock"} {
		t.Run(kind, func(t *testing.T) {
			eng := sim.NewEngine()
			dev := &lifetimeDevice{t: t, eng: eng, latency: 30 * sim.Microsecond, owed: map[*Request]*owedReq{}}
			cfg := Config{CPUs: 2, HWQueues: 1, TagsPerHW: 2, InsertCost: 500 * sim.Nanosecond}
			switch kind {
			case "mq-deadline":
				cfg.Scheduler = NewDeadlineScheduler(eng, sim.Microsecond, 5*sim.Millisecond)
			case "qos-dmclock":
				cfg.Scheduler = NewDMClockScheduler(eng, 500*sim.Nanosecond, DMClockParams{
					ReservationIOPS: 2000, LimitIOPS: 50000, Weight: 1, CostBlock: 4096})
			}
			mq, err := New(eng, cfg, dev)
			if err != nil {
				t.Fatal(err)
			}
			const bursts, perBurst = 40, 6
			fired := make([]int, bursts*perBurst)
			for b := 0; b < bursts; b++ {
				at := sim.Duration(b) * 20 * sim.Microsecond
				eng.Schedule(at, func() {
					op := OpWrite
					if b%3 == 2 {
						op = OpRead
					}
					for k := 0; k < perBurst; k++ {
						i := b*perBurst + k
						// Alternate ascending and descending slots so both
						// back and front merges happen.
						slot := k
						if b%2 == 1 {
							slot = perBurst - 1 - k
						}
						off := int64(b*perBurst+slot) * 4096
						req := mq.Submit(&IO{Op: op, Off: off, Len: 4096, Tenant: 1 + k%3}, k%2, trace.Ref{}, func(err error) {
							if err != nil {
								t.Errorf("submission %d: %v", i, err)
							}
							fired[i]++
							dev.fired(off)
						})
						if o := dev.owed[req]; o != nil && !(off >= o.off && off < o.end) {
							t.Errorf("submission %d got request %p while it still owes %d callbacks", i, req, o.pending)
						}
					}
				})
			}
			eng.Run()
			for i, n := range fired {
				if n != 1 {
					t.Errorf("submission %d: callback fired %d times, want 1", i, n)
				}
			}
			if len(dev.owed) != 0 {
				t.Errorf("%d requests still owe callbacks after the drain", len(dev.owed))
			}
			if kind == "mq-deadline" {
				if m := cfg.Scheduler.(*DeadlineScheduler).Merges; m == 0 {
					t.Error("no bios merged: the test never ran a multi-callback request")
				}
			}
		})
	}
}
