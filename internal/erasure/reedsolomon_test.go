package erasure

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func fillRandom(shards [][]byte, seed uint64) {
	rng := sim.NewRNG(seed)
	for i := range shards {
		for j := range shards[i] {
			shards[i][j] = byte(rng.Uint64())
		}
	}
}

func newTestCode(t *testing.T, k, m int) *Code {
	t.Helper()
	code, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestEncodeVerify(t *testing.T) {
	code := newTestCode(t, 4, 2)
	shards := make([][]byte, 6)
	for i := range shards {
		shards[i] = make([]byte, 128)
	}
	fillRandom(shards[:4], 1)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	ok, err := code.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
	// Corrupt one byte; verify must fail.
	shards[2][17] ^= 0xff
	ok, _ = code.Verify(shards)
	if ok {
		t.Fatal("Verify passed on corrupted data")
	}
}

func TestReconstructAllLossPatterns(t *testing.T) {
	const k, m = 4, 2
	code := newTestCode(t, k, m)
	orig := make([][]byte, k+m)
	for i := range orig {
		orig[i] = make([]byte, 64)
	}
	fillRandom(orig[:k], 7)
	if err := code.Encode(orig); err != nil {
		t.Fatal(err)
	}
	// Every pattern of up to m losses.
	for a := 0; a < k+m; a++ {
		for b := a; b < k+m; b++ {
			work := make([][]byte, k+m)
			for i := range work {
				work[i] = append([]byte(nil), orig[i]...)
			}
			work[a] = nil
			work[b] = nil // a==b means single loss
			if err := code.Reconstruct(work); err != nil {
				t.Fatalf("reconstruct loss {%d,%d}: %v", a, b, err)
			}
			for i := range work {
				if !bytes.Equal(work[i], orig[i]) {
					t.Fatalf("shard %d wrong after loss {%d,%d}", i, a, b)
				}
			}
		}
	}
}

func TestReconstructTooManyLosses(t *testing.T) {
	code := newTestCode(t, 4, 2)
	shards := make([][]byte, 6)
	for i := range shards {
		shards[i] = make([]byte, 16)
	}
	fillRandom(shards[:4], 3)
	code.Encode(shards)
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := code.Reconstruct(shards); err != ErrTooFewGood {
		t.Fatalf("err = %v, want ErrTooFewGood", err)
	}
}

func TestReconstructNoLoss(t *testing.T) {
	code := newTestCode(t, 3, 2)
	shards := make([][]byte, 5)
	for i := range shards {
		shards[i] = make([]byte, 8)
	}
	fillRandom(shards[:3], 9)
	code.Encode(shards)
	snapshot := make([][]byte, 5)
	for i := range shards {
		snapshot[i] = append([]byte(nil), shards[i]...)
	}
	if err := code.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], snapshot[i]) {
			t.Fatal("no-loss reconstruct changed shards")
		}
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	code := newTestCode(t, 4, 2)
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		shards := code.Split(data)
		if err := code.Encode(shards); err != nil {
			return false
		}
		// Lose two shards, reconstruct, rejoin.
		shards[1] = nil
		shards[4] = nil
		if err := code.Reconstruct(shards); err != nil {
			return false
		}
		out, err := code.Join(shards, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodePropertyAcrossGeometries(t *testing.T) {
	type geom struct{ k, m int }
	for _, g := range []geom{{2, 1}, {3, 2}, {4, 2}, {6, 3}, {8, 4}, {10, 4}} {
		code, err := New(g.k, g.m)
		if err != nil {
			t.Fatalf("k=%d m=%d: %v", g.k, g.m, err)
		}
		shards := make([][]byte, g.k+g.m)
		for i := range shards {
			shards[i] = make([]byte, 32)
		}
		fillRandom(shards[:g.k], uint64(g.k*100+g.m))
		orig := make([][]byte, len(shards))
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for i := range shards {
			orig[i] = append([]byte(nil), shards[i]...)
		}
		// Drop the last m shards (mix of data+parity when m>k? no: k..k+m).
		rng := sim.NewRNG(uint64(g.k + g.m))
		perm := rng.Perm(g.k + g.m)
		for _, idx := range perm[:g.m] {
			shards[idx] = nil
		}
		if err := code.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("k=%d m=%d: shard %d mismatch", g.k, g.m, i)
			}
		}
	}
}

func TestErrorCases(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(200, 100); err == nil {
		t.Fatal("k+m>256 accepted")
	}
	code := newTestCode(t, 2, 1)
	if err := code.Encode(make([][]byte, 2)); err != ErrShardCount {
		t.Fatalf("err = %v, want ErrShardCount", err)
	}
	bad := [][]byte{{1, 2}, {1}, {0, 0}}
	if err := code.Encode(bad); err != ErrShardSize {
		t.Fatalf("err = %v, want ErrShardSize", err)
	}
	if _, err := code.Verify([][]byte{nil, {1}, {2}}); err != ErrShardSize {
		t.Fatalf("verify nil err = %v", err)
	}
}

func TestGeneratorSystematic(t *testing.T) {
	code := newTestCode(t, 5, 3)
	for i := 0; i < 5; i++ {
		row := code.GeneratorRow(i)
		for j, v := range row {
			want := byte(0)
			if i == j {
				want = 1
			}
			if v != want {
				t.Fatalf("generator top block not identity at (%d,%d)=%d", i, j, v)
			}
		}
	}
}

func TestJoinErrors(t *testing.T) {
	code := newTestCode(t, 2, 1)
	if _, err := code.Join([][]byte{{1}}, 1); err == nil {
		t.Fatal("short shard list accepted")
	}
	if _, err := code.Join([][]byte{nil, {1}, {2}}, 1); err == nil {
		t.Fatal("nil data shard accepted")
	}
	if _, err := code.Join([][]byte{{1}, {2}, {3}}, 10); err == nil {
		t.Fatal("overlong n accepted")
	}
}

func TestSplitPadding(t *testing.T) {
	code := newTestCode(t, 4, 2)
	data := []byte{1, 2, 3, 4, 5} // not divisible by 4
	shards := code.Split(data)
	if len(shards) != 6 {
		t.Fatalf("len = %d", len(shards))
	}
	size := len(shards[0])
	for _, s := range shards {
		if len(s) != size {
			t.Fatal("unequal shard sizes")
		}
	}
	out, err := code.Join(shards, len(data))
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("join = %v, %v", out, err)
	}
}

func TestDecodeMatrixCache(t *testing.T) {
	code := newTestCode(t, 4, 2)
	shards := make([][]byte, 6)
	for i := range shards {
		shards[i] = make([]byte, 64)
	}
	fillRandom(shards[:4], 21)
	code.Encode(shards)
	orig := make([][]byte, 6)
	for i := range shards {
		orig[i] = append([]byte(nil), shards[i]...)
	}
	// Same loss pattern thrice: one cached matrix.
	for round := 0; round < 3; round++ {
		work := make([][]byte, 6)
		for i := range orig {
			work[i] = append([]byte(nil), orig[i]...)
		}
		work[1], work[4] = nil, nil
		if err := code.Reconstruct(work); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(work[1], orig[1]) {
			t.Fatal("reconstruction wrong with cache")
		}
	}
	if code.CachedDecodeMatrices() != 1 {
		t.Fatalf("cache entries = %d, want 1", code.CachedDecodeMatrices())
	}
	// A different pattern adds a second entry.
	work := make([][]byte, 6)
	for i := range orig {
		work[i] = append([]byte(nil), orig[i]...)
	}
	work[0] = nil
	if err := code.Reconstruct(work); err != nil {
		t.Fatal(err)
	}
	if code.CachedDecodeMatrices() != 2 {
		t.Fatalf("cache entries = %d, want 2", code.CachedDecodeMatrices())
	}
}
