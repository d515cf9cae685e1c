package blockmq

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeDevice completes requests after a fixed latency with bounded
// per-hctx concurrency. seen keeps a copy of each issued request as the
// device got it: requests are pooled, so the originals are reused once
// they complete.
type fakeDevice struct {
	eng      *sim.Engine
	latency  sim.Duration
	maxInUse int
	inUse    map[int]int
	seen     []Request
	mq       *MQ
}

func newFakeDevice(eng *sim.Engine, lat sim.Duration, maxInUse int) *fakeDevice {
	return &fakeDevice{eng: eng, latency: lat, maxInUse: maxInUse, inUse: make(map[int]int)}
}

func (d *fakeDevice) QueueRq(hctx int, req *Request) bool {
	if d.maxInUse > 0 && d.inUse[hctx] >= d.maxInUse {
		return false
	}
	d.inUse[hctx]++
	d.seen = append(d.seen, *req)
	d.eng.Schedule(d.latency, func() {
		d.inUse[hctx]--
		req.EndIO(nil)
	})
	return true
}

// submit is an untenanted, untraced Submit of a fresh record.
func submit(mq *MQ, op OpType, off int64, n, cpu int, done func(error)) *Request {
	return mq.Submit(&IO{Op: op, Off: off, Len: n}, cpu, trace.Ref{}, done)
}

func newMQT(t *testing.T, eng *sim.Engine, cfg Config, dev *fakeDevice) *MQ {
	t.Helper()
	mq, err := New(eng, cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	dev.mq = mq
	return mq
}

func TestSubmitComplete(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, 10*sim.Microsecond, 0)
	mq := newMQT(t, eng, Config{CPUs: 2, HWQueues: 2, TagsPerHW: 8}, dev)
	completions := 0
	eng.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			submit(mq, OpRead, int64(i*4096), 4096, 0, func(err error) {
				if err != nil {
					t.Errorf("completion err: %v", err)
				}
				completions++
			})
		}
	})
	eng.Run()
	if completions != 5 {
		t.Fatalf("completions = %d", completions)
	}
	st := mq.Stats()
	if st.Submitted != 5 || st.Completed != 5 || st.Dispatched != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTagExhaustionBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, 100*sim.Microsecond, 0)
	mq := newMQT(t, eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 2}, dev)
	var doneTimes []sim.Time
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			submit(mq, OpWrite, int64(i)*1e6, 4096, 0, func(err error) {
				doneTimes = append(doneTimes, eng.Now())
			})
		}
	})
	eng.Run()
	if len(doneTimes) != 4 {
		t.Fatalf("completions = %d", len(doneTimes))
	}
	// Only 2 tags: requests 3,4 start after 1,2 complete → two waves.
	if doneTimes[3].Sub(doneTimes[0]) < 90*sim.Microsecond {
		t.Fatalf("no tag backpressure: %v", doneTimes)
	}
}

func TestDeviceBusyRequeue(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, 50*sim.Microsecond, 1) // device accepts 1 at a time
	mq := newMQT(t, eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 8}, dev)
	done := 0
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			submit(mq, OpRead, 0, 512, 0, func(error) { done++ })
		}
	})
	// Each device completion's EndIO re-kicks the queue, so the requeued
	// requests issue without any outside kick.
	eng.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if mq.Stats().Requeues == 0 {
		t.Fatal("expected requeues from busy device")
	}
}

func TestHCtxMapping(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, sim.Microsecond, 0)
	mq := newMQT(t, eng, Config{CPUs: 4, HWQueues: 4, TagsPerHW: 4}, dev)
	eng.Schedule(0, func() {
		for cpu := 0; cpu < 4; cpu++ {
			submit(mq, OpRead, 0, 512, cpu, nil)
		}
	})
	eng.Run()
	seen := map[int]bool{}
	for _, r := range dev.seen {
		seen[r.hctx] = true
		if r.hctx != r.CPU {
			t.Fatalf("cpu %d mapped to hctx %d with equal queue counts", r.CPU, r.hctx)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("used %d hctxs, want 4", len(seen))
	}
}

func TestBypassDirectIssue(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, sim.Microsecond, 0)
	mq := newMQT(t, eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 8, Bypass: true}, dev)
	for i := 0; i < 5; i++ {
		submit(mq, OpWrite, int64(i)*4096, 4096, 0, nil)
		eng.RunUntil(eng.Now().Add(5 * sim.Microsecond)) // let each complete
	}
	eng.Run()
	st := mq.Stats()
	if st.DirectHits != 5 {
		t.Fatalf("DirectHits = %d, want 5", st.DirectHits)
	}
	if st.SchedPass != 0 {
		t.Fatal("bypass went through scheduler")
	}
}

func TestBypassRejectsScheduler(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, 0, 0)
	_, err := New(eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 1,
		Bypass: true, Scheduler: NewDeadlineScheduler(eng, 0, 0)}, dev)
	if err == nil {
		t.Fatal("bypass+scheduler accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, 0, 0)
	if _, err := New(eng, Config{}, dev); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 1}, nil); err == nil {
		t.Fatal("nil driver accepted")
	}
}

func TestDeadlineSchedulerMerging(t *testing.T) {
	eng := sim.NewEngine()
	sched := NewDeadlineScheduler(eng, sim.Microsecond, 5*sim.Millisecond)
	dev := newFakeDevice(eng, 100*sim.Microsecond, 0)
	mq := newMQT(t, eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 1, Scheduler: sched}, dev)
	done := 0
	eng.Schedule(0, func() {
		// One request occupies the single tag; the next three contiguous
		// writes pile up in the scheduler and merge.
		submit(mq, OpWrite, 1<<20, 4096, 0, func(error) { done++ })
		for i := 0; i < 3; i++ {
			submit(mq, OpWrite, int64(4096*i), 4096, 0, func(error) { done++ })
		}
	})
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4 (merged callbacks must all fire)", done)
	}
	if sched.Merges != 2 {
		t.Fatalf("merges = %d, want 2", sched.Merges)
	}
	// The device must have seen 2 requests: the first, and one 12 kB merge.
	if len(dev.seen) != 2 {
		t.Fatalf("device saw %d requests, want 2", len(dev.seen))
	}
	var mergedReq *Request
	for i := range dev.seen {
		if dev.seen[i].MergedBios() == 3 {
			mergedReq = &dev.seen[i]
		}
	}
	if mergedReq == nil || mergedReq.Len != 3*4096 {
		t.Fatalf("merged request wrong: %v", dev.seen)
	}
}

func TestDeadlineReadPreference(t *testing.T) {
	eng := sim.NewEngine()
	sched := NewDeadlineScheduler(eng, 0, 10*sim.Millisecond)
	r1 := &Request{Op: OpWrite, Off: 0, Len: 512}
	r2 := &Request{Op: OpRead, Off: 4096, Len: 512}
	sched.Insert(0, r1)
	sched.Insert(0, r2)
	if got := sched.Next(0); got != r2 {
		t.Fatal("read not preferred over write")
	}
	if got := sched.Next(0); got != r1 {
		t.Fatal("write lost")
	}
	if sched.Next(0) != nil {
		t.Fatal("empty scheduler returned request")
	}
}

func TestDeadlineWriteDeadline(t *testing.T) {
	eng := sim.NewEngine()
	sched := NewDeadlineScheduler(eng, 0, 100*sim.Microsecond)
	w := &Request{Op: OpWrite, Off: 0, Len: 512}
	sched.Insert(0, w)
	var got *Request
	eng.Schedule(sim.Time(200*sim.Microsecond).Sub(0), func() {
		r := &Request{Op: OpRead, Off: 4096, Len: 512}
		sched.Insert(0, r)
		got = sched.Next(0)
	})
	eng.Run()
	if got != w {
		t.Fatal("expired write not preferred over read")
	}
}

func TestTagSet(t *testing.T) {
	ts := newTagSet(3)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		tag, ok := ts.alloc()
		if !ok || seen[tag] {
			t.Fatalf("alloc %d: %v %v", i, tag, ok)
		}
		seen[tag] = true
	}
	if _, ok := ts.alloc(); ok {
		t.Fatal("over-allocated")
	}
	ts.free(1)
	if tag, ok := ts.alloc(); !ok || tag != 1 {
		t.Fatalf("re-alloc = %d, %v", tag, ok)
	}
}

// Property: for any workload mix, every submitted request completes exactly
// once and tags never leak.
func TestMQConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine()
		dev := newFakeDevice(eng, 2*sim.Microsecond, 0)
		mq, err := New(eng, Config{CPUs: 3, HWQueues: 2, TagsPerHW: 4}, dev)
		if err != nil {
			return false
		}
		completions := 0
		eng.Schedule(0, func() {
			for i, op := range ops {
				submit(mq, OpType(op%2), int64(i)*4096, 4096, i%3,
					func(error) { completions++ })
			}
		})
		eng.Run()
		if completions != len(ops) {
			return false
		}
		for h := 0; h < 2; h++ {
			if mq.TagsAvailable(h) != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEndIOTwicePanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, 0, 0)
	mq := newMQT(t, eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 1}, dev)
	var req *Request
	eng.Schedule(0, func() {
		req = submit(mq, OpRead, 0, 512, 0, nil)
	})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double EndIO did not panic")
		}
	}()
	req.EndIO(nil)
}
