package erasure

import (
	"testing"
)

// Steady-state allocation regression tests in the style of the fan-out ones
// in internal/core: after a warmup call populates the per-Code scratch and
// the decode-matrix cache, the codec hot paths must stay off the heap.

func newAllocHarness(t testing.TB, k, m, shardSize int) (*Code, [][]byte) {
	t.Helper()
	code, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		for j := range shards[i] {
			shards[i][j] = byte(i*31 + j)
		}
	}
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return code, shards
}

func TestEncodeZeroAlloc(t *testing.T) {
	code, shards := newAllocHarness(t, 8, 4, 16384)
	if n := testing.AllocsPerRun(100, func() {
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Encode allocated %.1f/op, want 0", n)
	}
}

func TestVerifyZeroAlloc(t *testing.T) {
	code, shards := newAllocHarness(t, 8, 4, 16384)
	if ok, err := code.Verify(shards); err != nil || !ok {
		t.Fatalf("warmup Verify = %v, %v", ok, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		ok, err := code.Verify(shards)
		if err != nil || !ok {
			t.Fatal("verify failed")
		}
	}); n != 0 {
		t.Errorf("Verify allocated %.1f/op, want 0", n)
	}
}

// TestReconstructAllocBound bounds the warm-cache Reconstruct path: the only
// permitted steady-state allocations are the freshly built output shards
// that the caller keeps.
func TestReconstructAllocBound(t *testing.T) {
	code, shards := newAllocHarness(t, 4, 2, 4096)
	work := make([][]byte, len(shards))
	// Warm the decode-matrix cache and the bookkeeping buffers for this
	// loss pattern.
	copy(work, shards)
	work[0], work[5] = nil, nil
	if err := code.Reconstruct(work); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		copy(work, shards)
		work[0], work[5] = nil, nil
		if err := code.Reconstruct(work); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Reconstruct allocated %.1f/op, want <= 2 (the rebuilt shards)", n)
	}
}
