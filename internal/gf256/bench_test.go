package gf256

import (
	"math/rand"
	"testing"
)

// TestMulSliceMatchesLogExp cross-checks the split-nibble kernels (both the
// dispatching MulSlice, which may take the AVX2 path, and the scalar
// fallback) against the reference log/exp implementation over every
// coefficient and awkward lengths (vector/unroll remainders, empty, single
// byte).
func TestMulSliceMatchesLogExp(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100, 4096} {
		src := make([]byte, n)
		base := make([]byte, n)
		rng.Read(src)
		rng.Read(base)
		for c := 0; c < 256; c++ {
			want := append([]byte(nil), base...)
			got := append([]byte(nil), base...)
			mulSliceLogExp(byte(c), src, want)
			MulSlice(byte(c), src, got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("c=%d n=%d: byte %d: got %#x want %#x", c, n, i, got[i], want[i])
				}
			}
			if c > 1 {
				scalar := append([]byte(nil), base...)
				mulSliceNib(nibTableFor(byte(c)), src, scalar)
				for i := range want {
					if want[i] != scalar[i] {
						t.Fatalf("scalar c=%d n=%d: byte %d: got %#x want %#x", c, n, i, scalar[i], want[i])
					}
				}
			}
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	MulSlice(3, make([]byte, 4), make([]byte, 5))
}

func benchMulSlice(b *testing.B, c byte, n int, fn func(byte, []byte, []byte)) {
	src := make([]byte, n)
	dst := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(c, src, dst)
	}
}

// Old-vs-new pairs; the MB/s column is the acceptance metric. MulSlice
// dispatches to the AVX2 kernel when available; Scalar pins the portable
// split-nibble fallback; LogExp is the seed implementation.
func BenchmarkMulSliceNew4k(b *testing.B)   { benchMulSlice(b, 0x8e, 4096, MulSlice) }
func BenchmarkMulSliceNew128k(b *testing.B) { benchMulSlice(b, 0x8e, 131072, MulSlice) }
func BenchmarkMulSliceScalar4k(b *testing.B) {
	tab := nibTableFor(0x8e)
	benchMulSlice(b, 0x8e, 4096, func(_ byte, src, dst []byte) { mulSliceNib(tab, src, dst) })
}
func BenchmarkMulSliceLogExp4k(b *testing.B)   { benchMulSlice(b, 0x8e, 4096, mulSliceLogExp) }
func BenchmarkMulSliceLogExp128k(b *testing.B) { benchMulSlice(b, 0x8e, 131072, mulSliceLogExp) }

// c==1 (pure parity XOR) word path vs the reference byte loop.
func BenchmarkXorSliceWord128k(b *testing.B) { benchMulSlice(b, 1, 131072, MulSlice) }
func BenchmarkXorSliceByte128k(b *testing.B) { benchMulSlice(b, 1, 131072, mulSliceLogExp) }
