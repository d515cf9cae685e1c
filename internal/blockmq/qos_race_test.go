package blockmq

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// qosRunDigest drives a fixed multi-tenant workload — a large-block hog
// against small-block victims with staggered arrivals — through one QoS
// elevator on a private engine and folds the dispatch order, completion
// times and scheduler counters into an FNV digest. The workload mixes
// token refill boundaries (token bucket) and tag maturities (dmclock) so
// any ordering wobble shows up in the hash.
func qosRunDigest(t *testing.T, kind string, seed uint64) uint64 {
	t.Helper()
	eng := sim.NewEngine()
	dev := newFakeDevice(eng, 20*sim.Microsecond, 2)
	cfg := Config{CPUs: 2, HWQueues: 2, TagsPerHW: 8, InsertCost: 600 * sim.Nanosecond}
	var reporter QoSReporter
	switch kind {
	case "tbucket":
		s := NewTokenBucketScheduler(eng, 500*sim.Nanosecond, 8<<20, 64<<10)
		cfg.Scheduler, reporter = s, s
	case "dmclock":
		s := NewDMClockScheduler(eng, 500*sim.Nanosecond, DMClockParams{
			ReservationIOPS: 2000,
			LimitIOPS:       20000,
			Weight:          1,
			CostBlock:       4096,
		})
		cfg.Scheduler, reporter = s, s
	default:
		t.Fatalf("unknown scheduler kind %q", kind)
	}
	mq, err := New(eng, cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	dev.mq = mq
	h := fnv.New64a()
	rng := sim.NewRNG(seed)
	for i := 0; i < 120; i++ {
		i := i
		tenant := 1 + rng.Intn(4)
		size := 4096
		if tenant == 1 {
			size = 64 << 10 // the hog
		}
		at := sim.Duration(rng.Intn(400)) * sim.Microsecond
		eng.Schedule(at, func() {
			start := eng.Now()
			io := &IO{Op: OpWrite, Off: int64(i) * 4096, Len: size, Tenant: tenant}
			mq.Submit(io, i%2, trace.Ref{}, func(err error) {
				if err != nil {
					t.Errorf("op %d: %v", i, err)
				}
				fmt.Fprintf(h, "c|%d|%d|%d\n", i, int64(start), int64(eng.Now()))
			})
		})
	}
	eng.Run()
	for _, req := range dev.seen {
		fmt.Fprintf(h, "d|%d|%d|%d\n", req.IO.Tenant, req.Off, req.Len)
	}
	st := reporter.QoS()
	fmt.Fprintf(h, "s|%d|%d|%d|%d\n", st.Dispatched, st.Throttled, st.ResPhase, st.WeightPhase)
	return h.Sum64()
}

// TestQoSSchedulersDeterministicUnderConcurrency races eight concurrent
// replays of the same workload per scheduler — private engines, shared
// nothing — and requires every replica to produce the same digest. Run
// under -race (ci.sh does) this doubles as proof the elevators keep all
// state engine-local: token refill arithmetic and dmclock tag ordering
// must not reach for anything shared.
func TestQoSSchedulersDeterministicUnderConcurrency(t *testing.T) {
	for _, kind := range []string{"tbucket", "dmclock"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			for _, seed := range []uint64{3, 17} {
				const replicas = 8
				digests := make([]uint64, replicas)
				var wg sync.WaitGroup
				for r := 0; r < replicas; r++ {
					r := r
					wg.Add(1)
					go func() {
						defer wg.Done()
						digests[r] = qosRunDigest(t, kind, seed)
					}()
				}
				wg.Wait()
				for r := 1; r < replicas; r++ {
					if digests[r] != digests[0] {
						t.Fatalf("seed %d: replica %d digest %#x != replica 0 %#x",
							seed, r, digests[r], digests[0])
					}
				}
				if qosRunDigest(t, kind, seed+1) == digests[0] {
					t.Errorf("seed %d: digest insensitive to workload seed", seed)
				}
			}
		})
	}
}
