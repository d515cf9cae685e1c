package blockmq

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkSubmitBypass measures the host cost of the DMQ fast path.
func BenchmarkSubmitBypass(b *testing.B) {
	eng := sim.NewEngine()
	dev := newBenchDevice(eng)
	mq, err := New(eng, Config{CPUs: 3, HWQueues: 3, TagsPerHW: 64, Bypass: true}, dev)
	if err != nil {
		b.Fatal(err)
	}
	io := &IO{Op: OpWrite, Len: 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io.Off = int64(i) * 4096
		mq.Submit(io, i%3, trace.Ref{}, nil)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkSubmitDeadline measures the elevator path for comparison.
func BenchmarkSubmitDeadline(b *testing.B) {
	eng := sim.NewEngine()
	dev := newBenchDevice(eng)
	sched := NewDeadlineScheduler(eng, 500*sim.Nanosecond, 5*sim.Millisecond)
	mq, err := New(eng, Config{CPUs: 3, HWQueues: 3, TagsPerHW: 64, Scheduler: sched}, dev)
	if err != nil {
		b.Fatal(err)
	}
	io := &IO{Op: OpWrite, Len: 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io.Off = int64(i) * 4096
		mq.Submit(io, i%3, trace.Ref{}, nil)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

type benchDevice struct {
	eng *sim.Engine
}

func newBenchDevice(eng *sim.Engine) *benchDevice { return &benchDevice{eng: eng} }

func (d *benchDevice) QueueRq(hctx int, req *Request) bool {
	d.eng.Schedule(sim.Microsecond, func() { req.EndIO(nil) })
	return true
}
