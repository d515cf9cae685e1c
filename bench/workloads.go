package main

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// blockSize is the I/O size of every workload: 4 KiB, the paper's Table II
// and Fig. 4 block size.
const blockSize = 4096

// readPct is the share of reads in every workload's op mix.
const readPct = 70

// workload is one frozen benchmark input shape. The op counts are part of the
// benchmark definition: they fix the run length on every commit, so changing
// one is a change of benchmark, not of the program.
type workload struct {
	Name string
	// Stack is a core.ParseStackSpec string.
	Stack string
	// Split builds the 16-node split-domain testbed on a two-shard engine.
	Split bool
	// Jobs closed-loop clients, each keeping QD ops outstanding; job j
	// submits from CPU j.
	Jobs, QD int
	// RangeBytes is the exercised prefix of the image.
	RangeBytes int64
	// ZipfTheta skews offsets (0 = uniform).
	ZipfTheta float64
	// WarmOps run first and are excluded from every metric; Ops are
	// measured. Both are totals over all jobs.
	WarmOps, Ops int
	// ClientHost is the fabric host that carries the stack's client-side
	// network stack (the card NIC on card stacks).
	ClientHost string
}

// workloads is the benchmark's workload table. Why each exists, and which
// layers it exercises or bypasses, is recorded in README.md.
var workloads = []workload{
	{
		Name: "dk-hw-rand", Stack: "deliba-k-hw",
		Jobs: 3, QD: 16, RangeBytes: 8 << 30,
		WarmOps: 30_000, Ops: 420_000, ClientHost: "fpga-cmac",
	},
	{
		Name: "d2-sw-qd1", Stack: "deliba-2-sw",
		Jobs: 1, QD: 1, RangeBytes: 8 << 30,
		WarmOps: 10_000, Ops: 340_000, ClientHost: "client-d2sw",
	},
	{
		Name: "dk-cache-zipf", Stack: "deliba-k-hw+cache-lsvd+cachelog=64+cacheread=16",
		Jobs: 3, QD: 16, RangeBytes: 1 << 30, ZipfTheta: 0.99,
		WarmOps: 180_000, Ops: 420_000, ClientHost: "fpga-cmac",
	},
	{
		Name: "split-256osd", Stack: "deliba-k-sw", Split: true,
		Jobs: 4, QD: 4, RangeBytes: 8 << 30,
		WarmOps: 20_000, Ops: 340_000, ClientHost: "client-dksw",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// An op is packed into one word: the block-aligned byte offset with the
// write flag in bit 0 (offsets are multiples of blockSize, so the low bits
// are free). The stack receives only the unpacked (op, offset, size).
const opWrite = 1

// genStreams generates every job's op sequence for one seed. Job j draws
// from its own PCG stream keyed by (seed, j), so adding a job or changing
// one job's length never shifts another job's ops.
func genStreams(w workload, seed uint64) [][]uint64 {
	blocks := w.RangeBytes / blockSize
	var z *zipf
	if w.ZipfTheta > 0 {
		z = newZipf(blocks, w.ZipfTheta)
	}
	perJob := (w.WarmOps + w.Ops) / w.Jobs
	streams := make([][]uint64, w.Jobs)
	for j := range streams {
		rng := rand.New(rand.NewPCG(seed, uint64(j)))
		ops := make([]uint64, perJob)
		for i := range ops {
			var blk int64
			if z != nil {
				// Scatter ranks over the range so the hot set is not one
				// contiguous prefix; the multiplier is odd, so this is a
				// bijection on the power-of-two block count.
				blk = z.next(rng) * 2654435761 % blocks
			} else {
				blk = rng.Int64N(blocks)
			}
			v := uint64(blk * blockSize)
			if rng.IntN(100) >= readPct {
				v |= opWrite
			}
			ops[i] = v
		}
		streams[j] = ops
	}
	return streams
}

// zipf draws ranks in [0, n) from a bounded Zipf(theta) distribution with
// the Gray et al. (SIGMOD '94) method: one uniform draw per sample.
// Rank 0 is the hottest.
type zipf struct {
	n                        int64
	theta, alpha, zetan, eta float64
	half                     float64 // 0.5^theta
}

func newZipf(n int64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, zetan: zeta(n, theta), alpha: 1 / (1 - theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.half = math.Pow(0.5, theta)
	return z
}

func zeta(n int64, theta float64) float64 {
	var s float64
	for i := int64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

func (z *zipf) next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	return min(r, z.n-1)
}
