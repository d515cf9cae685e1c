// Package erasure implements systematic Reed-Solomon erasure coding over
// GF(2^8), the algorithm Ceph uses for erasure-coded pools and the function
// DeLiBA-K offloads to its FPGA Reed-Solomon encoder accelerator.
//
// A Code with k data shards and m parity shards tolerates the loss of any m
// shards. Encoding is a matrix-vector product over GF(2^8); decoding inverts
// the surviving rows of the generator matrix.
package erasure

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// Errors returned by the codec.
var (
	ErrShardCount = errors.New("erasure: wrong number of shards")
	ErrShardSize  = errors.New("erasure: shards have unequal or zero size")
	ErrTooFewGood = errors.New("erasure: too few surviving shards to reconstruct")
)

// Code is a systematic (k+m, k) Reed-Solomon code. It is not safe for
// concurrent use (the decode-matrix cache is unsynchronised); the
// simulation is single-threaded by construction.
type Code struct {
	k, m int
	// gen is the (k+m)×k generator matrix; its top k×k block is the
	// identity, so shards 0..k-1 hold the data verbatim.
	gen *gf256.Matrix
	// decCache memoises inverted decode matrices by survivor signature:
	// degraded reads during an outage hit the same loss pattern
	// repeatedly, so production codecs cache the inversion.
	decCache map[string]*gf256.Matrix
	// Reusable per-Code work buffers (the struct is documented as not safe
	// for concurrent use, so no locking): scratch backs Verify's recomputed
	// parity, key the decode-cache lookups, and present/missing/gather the
	// Reconstruct bookkeeping. They keep the steady-state paths
	// allocation-free.
	scratch          []byte
	key              []byte
	present, missing []int
	gather           [][]byte
}

// New returns a code with k data and m parity shards; k+m must be ≤ 256.
// The generator is a systematised Vandermonde matrix (the classic jerasure
// construction used by Ceph's default erasure plugin).
func New(k, m int) (*Code, error) {
	if k <= 0 || m < 0 {
		return nil, fmt.Errorf("erasure: invalid k=%d m=%d", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("erasure: k+m=%d exceeds field size", k+m)
	}
	// Systematise: V is (k+m)×k with distinct evaluation points; every
	// k×k submatrix of a Vandermonde with distinct points is invertible.
	// Multiply on the right by the inverse of the top k×k block so the top
	// becomes I while preserving the MDS property.
	v := gf256.Vandermonde(k+m, k)
	topInv, err := v.SubMatrix(rangeInts(0, k)).Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: systematising Vandermonde: %w", err)
	}
	return &Code{k: k, m: m, gen: v.Mul(topInv), decCache: make(map[string]*gf256.Matrix)}, nil
}

// GeneratorRow returns a copy of row i of the generator matrix.
func (c *Code) GeneratorRow(i int) []byte {
	return append([]byte(nil), c.gen.Row(i)...)
}

func (c *Code) checkShards(shards [][]byte, allowNil bool) (size int, err error) {
	if len(shards) != c.k+c.m {
		return 0, ErrShardCount
	}
	for _, s := range shards {
		if s == nil {
			if !allowNil {
				return 0, ErrShardSize
			}
			continue
		}
		if size == 0 {
			size = len(s)
		}
		if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size == 0 {
		return 0, ErrShardSize
	}
	return size, nil
}

// Encode computes the m parity shards from the k data shards in place:
// shards[0:k] are inputs, shards[k:k+m] are outputs (must be allocated, same
// length as the data shards). Each parity shard is one fused dot product:
// a single pass accumulating all k contributions in registers, with no
// zeroing pass and no read-modify-write of the output.
func (c *Code) Encode(shards [][]byte) error {
	if _, err := c.checkShards(shards, false); err != nil {
		return err
	}
	for p := 0; p < c.m; p++ {
		gf256.MulAddSlices(c.gen.Row(c.k+p), shards[:c.k], shards[c.k+p])
	}
	return nil
}

// Verify reports whether the parity shards are consistent with the data
// shards. The recomputed parity lands in a per-Code scratch buffer that is
// reused across calls.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return false, err
	}
	if cap(c.scratch) < size {
		c.scratch = make([]byte, size)
	}
	scratch := c.scratch[:size]
	for p := 0; p < c.m; p++ {
		gf256.MulAddSlices(c.gen.Row(c.k+p), shards[:c.k], scratch)
		if !bytes.Equal(scratch, shards[c.k+p]) {
			return false, nil
		}
	}
	return true, nil
}

// Reconstruct rebuilds all missing shards (entries that are nil) in place.
// At least k shards must be present.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

// ReconstructData rebuilds only the missing data shards, leaving missing
// parity entries nil. This is the degraded-read entry point: Join consumes
// data shards alone, so a read that lost a data shard pays k dot products
// at most and never the parity recompute a full Reconstruct would add.
func (c *Code) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

func (c *Code) reconstruct(shards [][]byte, dataOnly bool) error {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return err
	}
	present := c.present[:0]
	missing := c.missing[:0]
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
		} else {
			missing = append(missing, i)
		}
	}
	c.present, c.missing = present[:0], missing[:0]
	if len(missing) == 0 {
		return nil
	}
	if len(present) < c.k {
		return ErrTooFewGood
	}

	// Take the first k surviving rows; invert to map survivors → data
	// (memoised per loss pattern).
	use := present[:c.k]
	dec, err := c.decodeMatrix(use)
	if err != nil {
		return err
	}

	// Recover missing data shards first: each is one fused dot product over
	// the survivors (gathered once into a reused slice-of-slices). The
	// output buffers are fresh allocations because the caller keeps them in
	// shards.
	gathered := c.gather[:0]
	for _, src := range use {
		gathered = append(gathered, shards[src])
	}
	c.gather = gathered[:0]
	for _, idx := range missing {
		if idx >= c.k {
			continue
		}
		out := make([]byte, size)
		gf256.MulAddSlices(dec.Row(idx), gathered, out)
		shards[idx] = out
	}

	// Recompute missing parity shards from (now complete) data.
	if dataOnly {
		return nil
	}
	for _, idx := range missing {
		if idx < c.k {
			continue
		}
		out := make([]byte, size)
		gf256.MulAddSlices(c.gen.Row(idx), shards[:c.k], out)
		shards[idx] = out
	}
	return nil
}

// Split slices data into k equal data shards plus m zeroed parity shards,
// zero-padding the final data shard. Use with Encode and Join.
func (c *Code) Split(data []byte) [][]byte {
	shardSize := (len(data) + c.k - 1) / c.k
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, c.k+c.m)
	for i := 0; i < c.k; i++ {
		shards[i] = make([]byte, shardSize)
		lo := i * shardSize
		if lo < len(data) {
			hi := lo + shardSize
			if hi > len(data) {
				hi = len(data)
			}
			copy(shards[i], data[lo:hi])
		}
	}
	for i := 0; i < c.m; i++ {
		shards[c.k+i] = make([]byte, shardSize)
	}
	return shards
}

// Join reassembles the original data of length n from the data shards.
func (c *Code) Join(shards [][]byte, n int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, ErrShardCount
	}
	out := make([]byte, 0, n)
	for i := 0; i < c.k && len(out) < n; i++ {
		if shards[i] == nil {
			return nil, errors.New("erasure: Join with missing data shard")
		}
		need := n - len(out)
		if need > len(shards[i]) {
			need = len(shards[i])
		}
		out = append(out, shards[i][:need]...)
	}
	if len(out) != n {
		return nil, fmt.Errorf("erasure: data too short: have %d want %d", len(out), n)
	}
	return out, nil
}

// decodeMatrix returns the inverted generator submatrix for the given
// surviving rows, from cache when the loss pattern repeats.
func (c *Code) decodeMatrix(use []int) (*gf256.Matrix, error) {
	key := c.key[:0]
	for _, u := range use {
		key = append(key, byte(u))
	}
	c.key = key[:0]
	// The string conversion in a map index does not allocate; only a cache
	// miss copies the key for the stored entry.
	if m, ok := c.decCache[string(key)]; ok {
		return m, nil
	}
	sub := c.gen.SubMatrix(use)
	dec, err := sub.Invert()
	if err != nil {
		// Cannot happen for an MDS generator, but fail loudly if it does.
		return nil, fmt.Errorf("erasure: decode matrix singular: %w", err)
	}
	c.decCache[string(key)] = dec
	return dec, nil
}

// CachedDecodeMatrices reports how many loss patterns are memoised.
func (c *Code) CachedDecodeMatrices() int { return len(c.decCache) }

func rangeInts(lo, hi int) []int {
	r := make([]int, hi-lo)
	for i := range r {
		r[i] = lo + i
	}
	return r
}
