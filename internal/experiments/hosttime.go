package experiments

import (
	"math"
	"time"
)

// Host-timed cells (Table I's "Go SW (measured)", the bucket table's "Go
// select") time the Go implementation on the machine running the report.
// Host noise (preemption, a concurrent GC, a busy neighbour, frequency
// ramps) only ever adds time, and it comes in bursts. So every operation
// is timed in many short runs, the operations take turns run by run so a
// burst hits only a few runs of each, and each keeps its fastest run.
const (
	hostTimeRounds = 31   // runs per operation
	hostTimeCalls  = 1000 // calls per run
)

// minTimePerOp is the one timing loop behind every host-measured cell. It
// times the ops round-robin, hostTimeRounds runs of hostTimeCalls calls
// each (call i gets i), and returns each op's fastest run as wall-clock
// time per call. Call it outside RunCells workers, so no other cell
// competes for the CPU while it measures. The first error stops the timing
// and is returned.
func minTimePerOp(ops ...func(i int) error) ([]time.Duration, error) {
	best := make([]time.Duration, len(ops))
	for k := range best {
		best[k] = time.Duration(math.MaxInt64)
	}
	for r := 0; r < hostTimeRounds; r++ {
		for k, op := range ops {
			start := time.Now()
			for i := 0; i < hostTimeCalls; i++ {
				if err := op(i); err != nil {
					return nil, err
				}
			}
			best[k] = min(best[k], time.Since(start)/hostTimeCalls)
		}
	}
	return best, nil
}
