package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the deterministic parallel experiment runner. Every sweep in
// the package enumerates its (stack, workload, blocksize, ...) cells up
// front and hands them to RunCells, which dispatches them across worker
// goroutines and assembles the results in canonical enumeration order.
//
// Parallel execution cannot perturb the measurements because every cell is
// hermetic: runPoint/runLatency/runDKVariant build a fresh sim.Engine and
// testbed per cell, so no simulated state is shared between cells, and each
// engine is single-threaded and seeded — a cell computes the same result no
// matter which worker runs it or when. Assembly order is fixed by the cell
// index, not completion order, so a parallel sweep is bit-identical to the
// serial one (Digest() is the oracle; see the determinism property tests).

// parallelism holds the configured worker count; 0 means GOMAXPROCS.
var parallelism atomic.Int32

// Parallelism returns the worker count sweeps fan out to.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the sweep worker count and returns the previous
// setting (0 = GOMAXPROCS default). n <= 0 restores the default.
func SetParallelism(n int) int {
	prev := int(parallelism.Load())
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
	return prev
}

// RunCells executes n independent experiment cells and returns their
// results indexed by cell. Cells are claimed from a shared counter by up to
// Parallelism() workers; with one worker the loop degenerates to the serial
// sweep. The first error in cell order wins, matching what a serial run
// would have returned.
func RunCells[T any](n int, run func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := run(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// sweepCell is one (stack, workload, blocksize) coordinate of a grid sweep.
type sweepCell struct {
	stack string // spec name
	wl    Workload
	bs    int
}

// enumCells expands the cross product in the canonical sweep order:
// stacks outermost, then workloads, then block sizes — the same nesting the
// serial loops used, which fixes the digest ordering.
func enumCells(stacks []string, wls []Workload, sizes []int) []sweepCell {
	cells := make([]sweepCell, 0, len(stacks)*len(wls)*len(sizes))
	for _, stack := range stacks {
		for _, wl := range wls {
			for _, bs := range sizes {
				cells = append(cells, sweepCell{stack: stack, wl: wl, bs: bs})
			}
		}
	}
	return cells
}
