package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// mulAddRef is the reference semantics for MulAddSlices: a zeroed dst
// accumulated one source at a time through the seed log/exp MulSlice — the
// exact composition the fused kernel replaces.
func mulAddRef(coeffs []byte, srcs [][]byte, dst []byte) {
	clear(dst)
	for j, c := range coeffs {
		mulSliceLogExp(c, srcs[j], dst)
	}
}

// muladdLengths exercises every kernel boundary: empty, sub-block, the
// 32-byte block size, the 64/128-byte unroll widths, and ragged tails.
var muladdLengths = []int{0, 1, 5, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 160, 1000, 4096, 4097}

// buildCase fabricates k sources of length n at a deliberately misaligned
// offset (the kernels must not assume 32-byte alignment), with the given
// coefficients.
func buildCase(rng *rand.Rand, k, n int) (coeffs []byte, srcs [][]byte) {
	coeffs = make([]byte, k)
	srcs = make([][]byte, k)
	for j := 0; j < k; j++ {
		coeffs[j] = byte(rng.Intn(256))
		backing := make([]byte, n+1)
		rng.Read(backing)
		srcs[j] = backing[1 : 1+n] // misaligned view
	}
	if k > 0 {
		coeffs[0] = 0 // always exercise the zero-coefficient skip
	}
	if k > 1 {
		coeffs[1] = 1 // and the identity coefficient
	}
	return coeffs, srcs
}

func TestMulAddSlicesMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range muladdLengths {
		for _, k := range []int{0, 1, 2, 3, 4, 7, 8, 11, 16} {
			coeffs, srcs := buildCase(rng, k, n)
			want := make([]byte, n)
			got := make([]byte, n)
			rng.Read(got) // stale dst content must be overwritten
			mulAddRef(coeffs, srcs, want)
			MulAddSlices(coeffs, srcs, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d n=%d: fused result diverges from MulSlice composition", k, n)
			}
		}
	}
}

// TestMulAddSlicesAllZeroCoeffs pins the degenerate path: stale dst bytes
// must still be cleared.
func TestMulAddSlicesAllZeroCoeffs(t *testing.T) {
	for _, n := range []int{0, 7, 32, 100} {
		srcs := [][]byte{make([]byte, n), make([]byte, n)}
		for i := 0; i < n; i++ {
			srcs[0][i] = 0xaa
			srcs[1][i] = 0x55
		}
		dst := bytes.Repeat([]byte{0xff}, n)
		MulAddSlices([]byte{0, 0}, srcs, dst)
		if n > 0 && !bytes.Equal(dst, make([]byte, n)) {
			t.Fatalf("n=%d: all-zero coefficients did not clear dst", n)
		}
	}
}

func TestMulAddSlicesPanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	check("coeffs/srcs mismatch", func() {
		MulAddSlices([]byte{1}, [][]byte{{1}, {2}}, []byte{0})
	})
	check("src/dst mismatch", func() {
		MulAddSlices([]byte{1, 2}, [][]byte{make([]byte, 4), make([]byte, 5)}, make([]byte, 4))
	})
}

// TestMulAddSlicesZeroAlloc pins the hot path: once the per-coefficient
// tables exist, a fused dot product performs no heap allocations.
func TestMulAddSlicesZeroAlloc(t *testing.T) {
	coeffs := []byte{3, 9, 0x8e, 200}
	srcs := make([][]byte, 4)
	for j := range srcs {
		srcs[j] = bytes.Repeat([]byte{byte(j + 1)}, 4096)
	}
	dst := make([]byte, 4096)
	MulAddSlices(coeffs, srcs, dst) // warm nibble/affine tables
	if n := testing.AllocsPerRun(100, func() {
		MulAddSlices(coeffs, srcs, dst)
	}); n != 0 {
		t.Errorf("MulAddSlices allocated %.1f/op, want 0", n)
	}
}

// FuzzMulAddSlices drives arbitrary coefficient vectors, source counts,
// lengths and offsets through the fused kernel and cross-checks the
// MulSlice composition. The seed corpus covers every dispatch boundary so
// `go test` alone exercises them.
func FuzzMulAddSlices(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), false)
	f.Add([]byte{0, 1, 2}, uint8(3), uint16(1), true)
	f.Add([]byte{5}, uint8(1), uint16(31), false)
	f.Add([]byte{0x8e, 0, 1, 7}, uint8(4), uint16(32), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(8), uint16(33), false)
	f.Add([]byte{9, 0x1d}, uint8(2), uint16(64), true)
	f.Add([]byte{255, 254, 253}, uint8(3), uint16(129), false)
	f.Add([]byte{2, 4, 8, 16, 32}, uint8(5), uint16(200), true)
	f.Fuzz(func(t *testing.T, raw []byte, k uint8, n16 uint16, misalign bool) {
		k8 := int(k%12) + 1
		n := int(n16 % 600)
		coeffs := make([]byte, k8)
		for j := range coeffs {
			if len(raw) > 0 {
				coeffs[j] = raw[j%len(raw)]
			}
		}
		rng := rand.New(rand.NewSource(int64(n)*131 + int64(k8)))
		srcs := make([][]byte, k8)
		for j := range srcs {
			backing := make([]byte, n+1)
			rng.Read(backing)
			if misalign {
				srcs[j] = backing[1 : 1+n]
			} else {
				srcs[j] = backing[:n]
			}
		}
		want := make([]byte, n)
		got := make([]byte, n)
		rng.Read(got)
		mulAddRef(coeffs, srcs, want)
		MulAddSlices(coeffs, srcs, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d n=%d misalign=%v: fused kernel diverges", k8, n, misalign)
		}
	})
}

func benchMulAdd(b *testing.B, k, n int, fn func(coeffs []byte, srcs [][]byte, dst []byte)) {
	rng := rand.New(rand.NewSource(1))
	coeffs := make([]byte, k)
	srcs := make([][]byte, k)
	for j := range srcs {
		coeffs[j] = byte(rng.Intn(255) + 1)
		srcs[j] = make([]byte, n)
		rng.Read(srcs[j])
	}
	dst := make([]byte, n)
	b.SetBytes(int64(k * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(coeffs, srcs, dst)
	}
}

// Fused dot product vs the composition it replaces, at the Reed-Solomon
// shard geometry of BenchmarkEncode8p4x128k (k=8, 16 kB shards).
func BenchmarkMulAddSlices8x16k(b *testing.B)   { benchMulAdd(b, 8, 16384, MulAddSlices) }
func BenchmarkMulAddComposed8x16k(b *testing.B) { benchMulAdd(b, 8, 16384, mulAddSlicesGeneric) }
func BenchmarkMulAddSlices4x4k(b *testing.B)    { benchMulAdd(b, 4, 4096, MulAddSlices) }
func BenchmarkMulAddComposed4x4k(b *testing.B)  { benchMulAdd(b, 4, 4096, mulAddSlicesGeneric) }
