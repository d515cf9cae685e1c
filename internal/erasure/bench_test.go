package erasure

import "testing"

// Benchmarks for the Reed-Solomon codec at the paper's geometries and the
// evaluation's block sizes.

func benchEncode(b *testing.B, k, m, size int) {
	code, err := New(k, m)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, k+m)
	shardSize := (size + k - 1) / k
	for i := range shards {
		shards[i] = make([]byte, shardSize)
	}
	for i := 0; i < k; i++ {
		for j := range shards[i] {
			shards[i][j] = byte(i*31 + j)
		}
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode4p2x4k(b *testing.B)   { benchEncode(b, 4, 2, 4096) }
func BenchmarkEncode4p2x128k(b *testing.B) { benchEncode(b, 4, 2, 131072) }
func BenchmarkEncode8p4x128k(b *testing.B) { benchEncode(b, 8, 4, 131072) }

func BenchmarkReconstructTwoLost(b *testing.B) {
	code, err := New(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	orig := make([][]byte, 6)
	for i := range orig {
		orig[i] = make([]byte, 32*1024)
		for j := range orig[i] {
			orig[i][j] = byte(i + j)
		}
	}
	code.Encode(orig)
	b.SetBytes(4 * 32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, 6)
		copy(work, orig)
		work[0], work[3] = nil, nil
		if err := code.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}
