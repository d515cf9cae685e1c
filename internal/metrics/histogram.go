// Package metrics provides the measurement layer shared by every benchmark
// harness in the repository: log-bucketed latency histograms with percentile
// queries, throughput/IOPS meters, and plain-text table rendering for the
// paper's figures and tables.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// Histogram is a log-linear latency histogram in the spirit of HDRHistogram:
// values are bucketed with bounded relative error (~2^-subBits) across a
// huge dynamic range, with O(1) recording. The bucket slice covers only the
// powers of two recorded so far, so a histogram costs memory in proportion
// to the range it has seen, not to the full int64 range.
type Histogram struct {
	count   uint64
	sum     int64
	min     int64
	max     int64
	subBits uint     // sub-bucket precision: 1<<subBits buckets per power of two
	buckets []uint64 // [exponentIndex<<subBits + mantissaIndex]
}

// defaultSubBits gives 32 sub-buckets per power of two: ≤ ~3% relative
// error.
const defaultSubBits = 5

// NewHistogram returns an empty histogram at the default precision.
func NewHistogram() *Histogram { return newHistogram(defaultSubBits) }

// newHistogram returns an empty histogram with 1<<subBits sub-buckets per
// power of two.
func newHistogram(subBits uint) *Histogram {
	return &Histogram{min: math.MaxInt64, subBits: subBits}
}

// bucketIndex maps v ≥ 0 to its bucket at the given sub-bucket precision.
func bucketIndex(v int64, subBits uint) int {
	sub := int64(1) << subBits
	if v < sub {
		return int(v)
	}
	// Position of the highest set bit above the sub-bucket width.
	exp := uint(bits.Len64(uint64(v))) - 1 - subBits
	mantissa := (v >> exp) & (sub - 1)
	return int(exp+1)<<subBits + int(mantissa)
}

// bucketLow returns the smallest value mapping to bucket i; used to report
// percentile values.
func bucketLow(i int, subBits uint) int64 {
	exp := i >> subBits
	mant := int64(i) & (1<<subBits - 1)
	if exp == 0 {
		return mant
	}
	return (mant | 1<<subBits) << uint(exp-1)
}

// grow extends the buckets through the end of the power of two that holds
// bucket i. The slice is sized exactly, never doubled, so its capacity
// stays bounded by the largest value recorded.
func (h *Histogram) grow(i int) {
	nb := make([]uint64, (i>>h.subBits+1)<<h.subBits)
	copy(nb, h.buckets)
	h.buckets = nb
}

// Record adds one observation of duration d.
func (h *Histogram) Record(d sim.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := bucketIndex(v, h.subBits)
	if i >= len(h.buckets) {
		h.grow(i)
	}
	h.buckets[i]++
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Min returns the smallest recorded duration (0 if empty).
func (h *Histogram) Min() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.min)
}

// Max returns the largest recorded duration.
func (h *Histogram) Max() sim.Duration { return sim.Duration(h.max) }

// Mean returns the arithmetic mean of recorded durations.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.count))
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() sim.Duration { return sim.Duration(h.sum) }

// Percentile returns the duration at quantile q in [0,100]. The result is a
// bucket lower bound, so its relative error is bounded by the bucket width;
// exact min/max are substituted at the extremes.
func (h *Histogram) Percentile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return sim.Duration(h.min)
	}
	if q >= 100 {
		return sim.Duration(h.max)
	}
	rank := uint64(math.Ceil(q / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			v := bucketLow(i, h.subBits)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max)
}

// Median returns the 50th percentile.
func (h *Histogram) Median() sim.Duration { return h.Percentile(50) }

// Merge adds all observations of other into h; a nil other is empty. It
// panics if the two precisions differ: their buckets cover different
// ranges, so adding them index by index would corrupt h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if other.subBits != h.subBits {
		panic(fmt.Sprintf("metrics: merging a %d-bit histogram into a %d-bit one", other.subBits, h.subBits))
	}
	if other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	if n := len(other.buckets); n > len(h.buckets) {
		h.grow(n - 1)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	h.count, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
	for i := range h.buckets {
		h.buckets[i] = 0
	}
}

// Summary is a compact snapshot of a histogram.
type Summary struct {
	Count             uint64
	Min, Mean, Median sim.Duration
	P95, P99, Max     sim.Duration
}

// Summarize returns the standard latency summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.count,
		Min:    h.Min(),
		Mean:   h.Mean(),
		Median: h.Median(),
		P95:    h.Percentile(95),
		P99:    h.Percentile(99),
		Max:    h.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Min, s.Mean, s.Median, s.P95, s.P99, s.Max)
}

// ExactPercentile computes a percentile from raw samples (for tests that
// validate the histogram approximation).
func ExactPercentile(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]sim.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}
