package iouring

import (
	"testing"

	"repro/internal/sim"
)

// Benchmarks measure the simulator's real (host) cost of ring operations —
// the model must stay cheap enough that experiment wall-clock time is
// dominated by the modelled system, not by the model.

func BenchmarkSubmitCompleteBatch32(b *testing.B) {
	eng := sim.NewEngine()
	st := &stubTarget{eng: eng, latency: 0}
	r, err := Setup(eng, Params{Entries: 64}, st)
	if err != nil {
		b.Fatal(err)
	}
	r.SetReaper(func(CQE) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			sqe := r.GetSQE()
			sqe.Op = OpRead
			sqe.UserData = uint64(j)
		}
		submit(eng, r)
		eng.Run()
	}
}

func BenchmarkSQPollPickup(b *testing.B) {
	eng := sim.NewEngine()
	st := &stubTarget{eng: eng, latency: 0}
	r, err := Setup(eng, Params{Entries: 256, Mode: SQPollMode}, st)
	if err != nil {
		b.Fatal(err)
	}
	reaped := 0
	r.SetReaper(func(CQE) { reaped++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqe := r.GetSQE()
		if sqe == nil {
			eng.Run()
			sqe = r.GetSQE()
		}
		sqe.Op = OpRead
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
	b.StopTimer()
	r.Close()
}
