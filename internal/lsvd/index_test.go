package lsvd

import (
	"math/rand/v2"
	"testing"
)

// checkIndexInvariant checks the two-level layout: every leaf non-empty
// and at most leafCap long, no leaf below leafMin unless it is the only
// one, keys[k] equal to leaf k's last End, Len() equal to the sum of
// leaf lengths, and the extents non-empty and in ascending,
// non-overlapping order across leaf boundaries.
func checkIndexInvariant(t *testing.T, ix *Index) {
	t.Helper()
	if len(ix.keys) != len(ix.leaves) {
		t.Fatalf("%d keys for %d leaves", len(ix.keys), len(ix.leaves))
	}
	var prev int64 = -1
	n := 0
	for k, l := range ix.leaves {
		switch {
		case len(l) == 0:
			t.Fatalf("leaf %d of %d is empty", k, len(ix.leaves))
		case len(l) > leafCap:
			t.Fatalf("leaf %d holds %d extents, cap %d", k, len(l), leafCap)
		case len(l) < leafMin && len(ix.leaves) > 1:
			t.Fatalf("leaf %d of %d holds %d extents, min %d", k, len(ix.leaves), len(l), leafMin)
		}
		if ix.keys[k] != l[len(l)-1].End {
			t.Fatalf("keys[%d] = %d, leaf ends at %d", k, ix.keys[k], l[len(l)-1].End)
		}
		for i, e := range l {
			if e.End <= e.Off {
				t.Fatalf("extent %d.%d empty: %+v", k, i, e)
			}
			if e.Off < prev {
				t.Fatalf("extent %d.%d overlaps or disorders at %d (prev end %d)", k, i, e.Off, prev)
			}
			prev = e.End
		}
		n += len(l)
	}
	if ix.Len() != n {
		t.Fatalf("Len() = %d, leaves hold %d", ix.Len(), n)
	}
}

// shadow is a naive per-byte model of an Index: the sequence, segment
// and log position each mapped byte resolves to (seq 0 = unmapped).
type shadow struct {
	seq    []uint64
	seg    []int
	logPos []int64
}

func newShadow(domain int64) *shadow {
	return &shadow{seq: make([]uint64, domain), seg: make([]int, domain), logPos: make([]int64, domain)}
}

// mapped counts the bytes of [off, end) the shadow maps.
func (s *shadow) mapped(off, end int64) int64 {
	var n int64
	for b := off; b < end; b++ {
		if s.seq[b] != 0 {
			n++
		}
	}
	return n
}

func (s *shadow) insert(e Extent) {
	for b := e.Off; b < e.End; b++ {
		s.seq[b], s.seg[b], s.logPos[b] = e.Seq, e.Seg, e.SegOff+(b-e.Off)
	}
}

// unmap clears the bytes of [off, end) that match keep and returns how
// many it cleared.
func (s *shadow) unmap(off, end int64, keep func(b int64) bool) int64 {
	var n int64
	for b := off; b < end; b++ {
		if s.seq[b] != 0 && keep(b) {
			s.seq[b] = 0
			n++
		}
	}
	return n
}

func (s *shadow) remove(off, end int64) int64 {
	return s.unmap(off, end, func(int64) bool { return true })
}

func (s *shadow) dropRangeSeq(off, end int64, seq uint64) int64 {
	return s.unmap(off, end, func(b int64) bool { return s.seq[b] == seq })
}

func (s *shadow) dropSeg(seg int) int64 {
	return s.unmap(0, int64(len(s.seq)), func(b int64) bool { return s.seg[b] == seg })
}

// check compares ix with the shadow byte for byte — mapping, sequence,
// segment and log position (the split arithmetic) — plus Bytes() and
// Covered over a sweep of ranges.
func (s *shadow) check(t *testing.T, ix *Index) {
	t.Helper()
	domain := int64(len(s.seq))
	var wantBytes int64
	for b := int64(0); b < domain; b++ {
		e, ok := ix.At(b)
		if mapped := s.seq[b] != 0; mapped != ok {
			t.Fatalf("byte %d: index mapped=%v shadow mapped=%v", b, ok, mapped)
		}
		if !ok {
			continue
		}
		wantBytes++
		if e.Seq != s.seq[b] {
			t.Fatalf("byte %d: index seq %d shadow seq %d", b, e.Seq, s.seq[b])
		}
		if e.Seg != s.seg[b] {
			t.Fatalf("byte %d: index seg %d shadow seg %d", b, e.Seg, s.seg[b])
		}
		if got := e.SegOff + (b - e.Off); got != s.logPos[b] {
			t.Fatalf("byte %d: log position %d shadow %d (split arithmetic)", b, got, s.logPos[b])
		}
	}
	if got := ix.Bytes(); got != wantBytes {
		t.Fatalf("Bytes() = %d, shadow maps %d", got, wantBytes)
	}
	// nextMapped[b] is the first mapped byte at or after b (domain if none).
	nextMapped := make([]int64, domain+1)
	nextMapped[domain] = domain
	for b := domain - 1; b >= 0; b-- {
		nextMapped[b] = nextMapped[b+1]
		if s.seq[b] != 0 {
			nextMapped[b] = b
		}
	}
	var empty Index
	for start := int64(0); start < domain; start += 97 {
		end := min(start+256, domain)
		mapped := s.mapped(start, end)
		want := mapped == end-start
		if got := ix.Covered(start, end); got != want {
			t.Fatalf("Covered(%d,%d) = %v, shadow %v", start, end, got, want)
		}
		if got := CoveredUnion(ix, &empty, start, end); got != want {
			t.Fatalf("CoveredUnion(%d,%d) = %v, shadow %v", start, end, got, want)
		}
		var visited, gaps int64
		ix.VisitRange(start, end, func(e Extent) bool {
			if e.Off < start || e.End > end || e.Seq != s.seq[e.Off] || e.SegOff != s.logPos[e.Off] {
				t.Fatalf("VisitRange(%d,%d) passed %+v", start, end, e)
			}
			visited += e.End - e.Off
			return true
		})
		ix.VisitGaps(start, end, func(o, e int64) {
			if s.mapped(o, e) != 0 {
				t.Fatalf("VisitGaps(%d,%d) passed mapped gap [%d,%d)", start, end, o, e)
			}
			gaps += e - o
		})
		if visited != mapped || gaps != end-start-mapped {
			t.Fatalf("[%d,%d): visited %d and gaps %d bytes, shadow maps %d", start, end, visited, gaps, mapped)
		}
		if s.seq[start] == 0 {
			next := nextMapped[start]
			if got := ix.NextStart(start); next < domain && got != next || next == domain && got < domain {
				t.Fatalf("NextStart(%d) = %d, shadow %d", start, got, next)
			}
		}
	}
	segBytes := map[int]int64{}
	for b := int64(0); b < domain; b++ {
		if s.seq[b] != 0 {
			segBytes[s.seg[b]]++
		}
	}
	var buf []Extent
	for seg, want := range segBytes {
		var got int64
		buf = ix.CollectSeg(seg, buf[:0])
		for _, e := range buf {
			got += e.End - e.Off
		}
		if got != want || ix.SegBytes(seg) != want {
			t.Fatalf("segment %d: CollectSeg %d, SegBytes %d bytes, shadow %d", seg, got, ix.SegBytes(seg), want)
		}
	}
}

// FuzzExtentIndex drives the index with random overlapping inserts,
// range removals and segment drops, mirroring every mutation into a
// naive per-byte shadow map, then checks the two agree byte-for-byte —
// including the log-position arithmetic across splits.
func FuzzExtentIndex(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 0, 8, 4, 2, 5, 2, 8, 0})
	f.Add([]byte{1, 10, 3, 1, 1, 12, 3, 2, 1, 8, 9, 3, 6, 0, 0, 1})
	f.Add([]byte{2, 100, 50, 1, 2, 120, 10, 2, 5, 110, 30, 0, 2, 90, 80, 4})
	f.Add([]byte{3, 200, 1, 1, 3, 200, 1, 2, 3, 199, 3, 3, 6, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = int64(1) << 12
		var ix Index
		sh := newShadow(domain)
		var seq uint64
		for i := 0; i+4 <= len(data); i += 4 {
			op := data[i] % 8
			off := int64(data[i+1]) * 16
			ln := int64(data[i+2])%64*8 + 1
			if off >= domain {
				off = domain - 1
			}
			if off+ln > domain {
				ln = domain - off
			}
			switch {
			case op < 6: // insert
				seq++
				e := Extent{Off: off, End: off + ln, Seg: int(data[i+3] % 8), SegOff: int64(data[i+3]) * 32, Seq: seq}
				ix.Insert(e)
				sh.insert(e)
			case op == 6:
				ix.RemoveRange(off, off+ln)
				sh.remove(off, off+ln)
			default:
				seg := int(data[i+3] % 8)
				ix.DropSeg(seg)
				sh.dropSeg(seg)
			}
			checkIndexInvariant(t, &ix)
		}
		sh.check(t, &ix)
	})
}

// TestIndexDifferential runs a long deterministic stream of random
// inserts, range removals, sequence-matched drops and segment drops
// over a domain that builds hundreds of leaves, so leaf splits, joins,
// rebalancing and cross-leaf splices all run many times, and checks
// every return value and, periodically, every byte against the shadow.
func TestIndexDifferential(t *testing.T) {
	const (
		domain = int64(1) << 19
		ops    = 100000
		segs   = 256
	)
	rng := rand.New(rand.NewPCG(25, 1))
	var ix Index
	sh := newShadow(domain)
	type fill struct {
		off, end int64
		seq      uint64
	}
	var fills []fill // FIFO of inserted ranges, evicted by DropRangeSeq
	var seq uint64
	maxLeaves := 0
	span := func() (int64, int64) {
		ln := 1 + rng.Int64N(16)
		if rng.IntN(64) == 0 { // occasionally span several leaves
			ln = 1 + rng.Int64N(4096)
		}
		off := rng.Int64N(domain - ln)
		return off, off + ln
	}
	for op := 0; op < ops; op++ {
		switch r := rng.IntN(1000); {
		case r < 780:
			off, end := span()
			seq++
			e := Extent{Off: off, End: end, Seg: rng.IntN(segs), SegOff: rng.Int64N(1 << 20), Seq: seq}
			want := sh.mapped(off, end)
			if got := ix.Insert(e); got != want {
				t.Fatalf("op %d: Insert(%+v) replaced %d, shadow %d", op, e, got, want)
			}
			sh.insert(e)
			fills = append(fills, fill{off, end, seq})
		case r < 880:
			off, end := span()
			if got, want := ix.RemoveRange(off, end), sh.remove(off, end); got != want {
				t.Fatalf("op %d: RemoveRange(%d,%d) = %d, shadow %d", op, off, end, got, want)
			}
		case r < 998:
			if len(fills) == 0 {
				continue
			}
			f := fills[0]
			fills = fills[1:]
			if got, want := ix.DropRangeSeq(f.off, f.end, f.seq), sh.dropRangeSeq(f.off, f.end, f.seq); got != want {
				t.Fatalf("op %d: DropRangeSeq(%d,%d,%d) = %d, shadow %d", op, f.off, f.end, f.seq, got, want)
			}
		default:
			seg := rng.IntN(segs)
			if got, want := ix.DropSeg(seg), sh.dropSeg(seg); got != want {
				t.Fatalf("op %d: DropSeg(%d) = %d, shadow %d", op, seg, got, want)
			}
		}
		maxLeaves = max(maxLeaves, len(ix.leaves))
		if op%64 == 0 {
			checkIndexInvariant(t, &ix)
		}
		if op%25000 == 0 {
			sh.check(t, &ix)
		}
	}
	checkIndexInvariant(t, &ix)
	sh.check(t, &ix)
	t.Logf("peak %d leaves, final %d extents in %d leaves", maxLeaves, ix.Len(), len(ix.leaves))
	if maxLeaves < 200 {
		t.Fatalf("stream peaked at %d leaves; want hundreds to exercise the two-level paths", maxLeaves)
	}
	ix.Reset()
	checkIndexInvariant(t, &ix)
	if ix.Len() != 0 || ix.Bytes() != 0 {
		t.Fatalf("Reset left %d extents / %d bytes", ix.Len(), ix.Bytes())
	}
}

// TestIndexLeafRebalance drives the structural edge cases a random
// stream rarely reaches: shrinking the last leaf below leafMin (it joins
// its left neighbour), DropSeg emptying whole leaves at once, and a
// RemoveRange across every leaf.
func TestIndexLeafRebalance(t *testing.T) {
	const n = 1000
	ix := blockIndex(n)
	sh := newShadow(n << 12)
	for b := 0; b < n; b++ {
		e, _ := ix.At(int64(b) << 12)
		sh.insert(e)
	}
	checkIndexInvariant(t, ix)
	if len(ix.leaves) < 8 {
		t.Fatalf("%d blocks built only %d leaves", n, len(ix.leaves))
	}
	// Unmap blocks from the tail one at a time.
	for b := n - 1; b >= n-300; b-- {
		off := int64(b) << 12
		ix.RemoveRange(off, off+4096)
		sh.remove(off, off+4096)
		checkIndexInvariant(t, ix)
	}
	// Re-tag a contiguous run of blocks into one segment, then drop it.
	for b := 100; b < 500; b++ {
		off := int64(b) << 12
		e := Extent{Off: off, End: off + 4096, Seg: 99, SegOff: off, Seq: uint64(n + b)}
		ix.Insert(e)
		sh.insert(e)
	}
	if got, want := ix.DropSeg(99), sh.dropSeg(99); got != want {
		t.Fatalf("DropSeg = %d, shadow %d", got, want)
	}
	checkIndexInvariant(t, ix)
	sh.check(t, ix)
	if got, want := ix.RemoveRange(1000, (n-300)<<12-1000), sh.remove(1000, (n-300)<<12-1000); got != want {
		t.Fatalf("RemoveRange across all leaves = %d, shadow %d", got, want)
	}
	checkIndexInvariant(t, ix)
	sh.check(t, ix)
	if ix.Len() != 2 || len(ix.leaves) != 1 {
		t.Fatalf("%d extents in %d leaves left, want 2 in 1", ix.Len(), len(ix.leaves))
	}
}

// blockIndex returns an index of n adjacent 4 KiB extents, block b
// carrying sequence b+1, like a write log that has absorbed n blocks.
func blockIndex(n int) *Index {
	ix := new(Index)
	for b := 0; b < n; b++ {
		off := int64(b) << 12
		ix.Insert(Extent{Off: off, End: off + 4096, Seg: b % 16, SegOff: off, Seq: uint64(b + 1)})
	}
	return ix
}

// TestIndexWarmCycleZeroAllocs pins a warm Insert / RemoveRange /
// DropRangeSeq cycle at zero allocations: splices stay inside leaf
// buffers, and a split or join reuses recycled leaves.
func TestIndexWarmCycleZeroAllocs(t *testing.T) {
	const n = 7168
	ix := blockIndex(n)
	seq := uint64(n)
	b := 0
	// One cycle rewrites block b: a partial overwrite splits it in three,
	// the overwrite is unmapped, the old block's remnants are dropped by
	// sequence, and a full-block write maps it again — the extent count
	// is back where it started.
	cycle := func() {
		off := int64(b) << 12
		old, _ := ix.At(off)
		seq++
		ix.Insert(Extent{Off: off + 1024, End: off + 2048, Seq: seq})
		ix.RemoveRange(off+1024, off+2048)
		ix.DropRangeSeq(off, off+4096, old.Seq)
		seq++
		ix.Insert(Extent{Off: off, End: off + 4096, Seg: b % 16, SegOff: off, Seq: seq})
		b = (b + 61) % n
	}
	for i := 0; i < 2*n; i++ {
		cycle()
	}
	checkIndexInvariant(t, ix)
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("warm index cycle allocates %.1f objects, want 0", allocs)
	}
	if ix.Len() != n || ix.Bytes() != n<<12 {
		t.Fatalf("cycle changed the index: %d extents / %d bytes", ix.Len(), ix.Bytes())
	}
}

// BenchmarkIndexInsert measures an Insert that maps a new 4 KiB block
// into an index the size of the dk-cache-zipf write index (~7k
// extents), paired with the RemoveRange that unmaps another block so
// the size holds steady. Offsets are a random permutation, so splices
// land all over the index.
func BenchmarkIndexInsert(b *testing.B) {
	const n = 7168
	slots := rand.New(rand.NewPCG(1, 2)).Perm(2 * n)
	var ix Index
	for _, s := range slots[:n] {
		off := int64(s) << 13
		ix.Insert(Extent{Off: off, End: off + 4096, Seq: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := int64(slots[(i+n)%len(slots)]) << 13
		out := int64(slots[i%len(slots)]) << 13
		ix.Insert(Extent{Off: in, End: in + 4096, Seq: uint64(i + 2)})
		ix.RemoveRange(out, out+4096)
	}
	if ix.Len() != n {
		b.Fatalf("index holds %d extents, want %d", ix.Len(), n)
	}
}

func TestIndexDropRangeSeq(t *testing.T) {
	var ix Index
	ix.Insert(Extent{Off: 0, End: 100, Seq: 1})
	ix.Insert(Extent{Off: 40, End: 60, Seq: 2})
	// Evicting the seq-1 fill must not touch the newer seq-2 overlay.
	if got := ix.DropRangeSeq(0, 100, 1); got != 80 {
		t.Fatalf("DropRangeSeq removed %d bytes, want 80", got)
	}
	if !ix.Covered(40, 60) {
		t.Fatal("seq-2 range should survive")
	}
	if ix.Covered(0, 41) || ix.Covered(59, 100) {
		t.Fatal("seq-1 ranges should be gone")
	}
	if got := ix.DropRangeSeq(0, 100, 2); got != 20 {
		t.Fatalf("second DropRangeSeq removed %d bytes, want 20", got)
	}
	if ix.Len() != 0 {
		t.Fatalf("index should be empty, has %d extents", ix.Len())
	}
}

func TestCoveredUnion(t *testing.T) {
	var a, b Index
	a.Insert(Extent{Off: 0, End: 50, Seq: 1})
	b.Insert(Extent{Off: 50, End: 100, Seq: 2})
	if !CoveredUnion(&a, &b, 0, 100) {
		t.Fatal("adjacent coverage across two indexes should count")
	}
	if CoveredUnion(&a, &b, 0, 101) {
		t.Fatal("byte 100 is uncovered")
	}
	b.Insert(Extent{Off: 25, End: 75, Seq: 3})
	if !CoveredUnion(&a, &b, 10, 90) {
		t.Fatal("overlapping coverage should count")
	}
	var empty Index
	if CoveredUnion(&empty, &empty, 0, 1) {
		t.Fatal("empty indexes cover nothing")
	}
	if !CoveredUnion(&empty, &empty, 5, 5) {
		t.Fatal("empty range is trivially covered")
	}
}

func TestVisitGaps(t *testing.T) {
	var ix Index
	ix.Insert(Extent{Off: 10, End: 20, Seq: 1})
	ix.Insert(Extent{Off: 30, End: 40, Seq: 2})
	var gaps [][2]int64
	ix.VisitGaps(0, 50, func(o, e int64) { gaps = append(gaps, [2]int64{o, e}) })
	want := [][2]int64{{0, 10}, {20, 30}, {40, 50}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gap %d = %v, want %v", i, gaps[i], want[i])
		}
	}
}
