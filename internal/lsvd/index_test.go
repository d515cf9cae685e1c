package lsvd

import (
	"math/rand/v2"
	"slices"
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

// FuzzExtentIndex drives the index with random overlapping inserts (half
// of them through insertAt with the cursor the previous one returned),
// range removals, sequence-matched drops and segment drops, mirroring
// every mutation into a naive per-byte shadow map, then checks the two
// agree byte-for-byte — including the log-position arithmetic across
// splits.
func FuzzExtentIndex(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 0, 8, 4, 2, 5, 2, 8, 0})
	f.Add([]byte{1, 10, 3, 1, 1, 12, 3, 2, 1, 8, 9, 3, 6, 0, 0, 1})
	f.Add([]byte{2, 100, 50, 1, 2, 120, 10, 2, 5, 110, 30, 0, 2, 90, 80, 4})
	f.Add([]byte{3, 200, 1, 1, 3, 200, 1, 2, 3, 199, 3, 3, 6, 0, 0, 2})
	f.Add([]byte{0, 10, 40, 1, 2, 12, 2, 2, 4, 20, 1, 3, 8, 8, 50, 2, 8, 8, 50, 0})
	f.Add([]byte{3, 1, 3, 0, 4, 2, 3, 0, 5, 3, 3, 0, 3, 4, 3, 0, 8, 0, 63, 3, 8, 0, 63, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = int64(1) << 12
		var ix Index
		sh := newShadow(domain)
		var seq uint64
		k, i := -1, 0
		for j := 0; j+4 <= len(data); j += 4 {
			op := data[j] % 9
			off := int64(data[j+1]) * 16
			ln := int64(data[j+2])%64*8 + 1
			if off >= domain {
				off = domain - 1
			}
			if off+ln > domain {
				ln = domain - off
			}
			switch {
			case op < 6: // insert
				seq++
				e := Extent{Off: off, End: off + ln, Seg: int(data[j+3] % 8), SegOff: int64(data[j+3]) * 32, Seq: seq}
				want := sh.mapped(e.Off, e.End)
				got := int64(0)
				if op < 3 {
					got = ix.Insert(e)
				} else {
					got, k, i = ix.insertAt(e, k, i)
				}
				if got != want {
					t.Fatalf("insert %+v replaced %d bytes, shadow %d", e, got, want)
				}
				sh.insert(e)
			case op == 6:
				ix.RemoveRange(off, off+ln)
				sh.remove(off, off+ln)
			case op == 7:
				seg := int(data[j+3] % 8)
				ix.DropSeg(seg)
				sh.dropSeg(seg)
			default: // drop the bytes one of the last four inserts still owns
				s := seq - min(seq, uint64(data[j+3]%4))
				if got, want := ix.DropRangeSeq(off, off+ln, s), sh.dropRangeSeq(off, off+ln, s); got != want {
					t.Fatalf("DropRangeSeq(%d,%d,%d) = %d, shadow %d", off, off+ln, s, got, want)
				}
			}
			checkIndexInvariant(t, &ix)
		}
		sh.check(t, &ix)
	})
}

// FuzzCoveredUnion builds two indexes, like a cache's write log and read
// cache, from random inserts and removals mirrored into two per-byte
// shadows, then checks CoveredUnion over ranges at and around every
// extent boundary and each index's VisitGaps over the same ranges.
func FuzzCoveredUnion(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 8, 4, 2, 12, 4})
	f.Add([]byte{0, 0, 8, 1, 8, 8, 0, 16, 8, 1, 24, 8, 2, 10, 3, 3, 20, 2})
	f.Add([]byte{1, 4, 60, 0, 10, 2, 0, 20, 2, 0, 30, 2, 3, 30, 1, 2, 50, 1})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 3, 1, 1, 4, 1, 0, 5, 1, 1, 6, 1, 0, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = int64(1) << 10
		var ix [2]Index
		sh := [2]*shadow{newShadow(domain), newShadow(domain)}
		var seq uint64
		for j := 0; j+3 <= len(data); j += 3 {
			w := data[j] & 1 // which index
			off := int64(data[j+1]) * 4 % domain
			end := min(off+int64(data[j+2])%64+1, domain)
			if data[j]&2 == 0 {
				seq++
				e := Extent{Off: off, End: end, Seq: seq}
				ix[w].Insert(e)
				sh[w].insert(e)
			} else {
				ix[w].RemoveRange(off, end)
				sh[w].remove(off, end)
			}
		}
		// Probe ranges that start and end at and around every boundary.
		var cuts []int64
		for w := range ix {
			for _, l := range ix[w].leaves {
				for _, e := range l {
					cuts = append(cuts, e.Off-1, e.Off, e.Off+1, e.End-1, e.End, e.End+1)
				}
			}
		}
		cuts = append(cuts, 0, domain)
		for _, a := range cuts {
			for _, b := range cuts {
				if a < 0 || b > domain || a > b {
					continue
				}
				want := true
				for x := a; x < b && want; x++ {
					want = sh[0].seq[x] != 0 || sh[1].seq[x] != 0
				}
				if got := CoveredUnion(&ix[0], &ix[1], a, b); got != want {
					t.Fatalf("CoveredUnion(%d,%d) = %v, shadows %v", a, b, got, want)
				}
				for w := range ix {
					pos := a
					ix[w].VisitGaps(a, b, func(o, e int64) {
						if o < pos || o == pos && o != a || e <= o || e > b || sh[w].mapped(o, e) != 0 {
							t.Fatalf("index %d: VisitGaps(%d,%d) passed [%d,%d) after %d", w, a, b, o, e, pos)
						}
						if o > pos && sh[w].mapped(pos, o) != o-pos {
							t.Fatalf("index %d: VisitGaps(%d,%d) skipped a gap in [%d,%d)", w, a, b, pos, o)
						}
						pos = e
					})
					if sh[w].mapped(pos, b) != b-pos {
						t.Fatalf("index %d: VisitGaps(%d,%d) skipped a gap in [%d,%d)", w, a, b, pos, b)
					}
				}
			}
		}
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

// boundaryIndex lays out nLeaves leaves of per extents each directly, as
// they stand between a splice and its settle, so a leaf may hold up to
// leafCap+leafSlack extents. Extents are 1–4 bytes long; every third one
// abuts the next and the others leave a gap of 1–5 bytes.
func boundaryIndex(nLeaves, per int) *Index {
	ix := new(Index)
	pos := int64(5)
	for k := 0; k < nLeaves; k++ {
		l := ix.newLeaf()
		for j := 0; j < per; j++ {
			n := len(l) + k*per
			e := Extent{Off: pos, End: pos + 1 + int64(n%4), Seq: uint64(n + 1)}
			l = append(l, e)
			pos = e.End
			if n%3 != 0 {
				pos += 1 + int64(n%5)
			}
		}
		ix.leaves = append(ix.leaves, l)
		ix.keys = append(ix.keys, l[len(l)-1].End)
		ix.n += len(l)
	}
	return ix
}

// TestSearchBoundaries checks the branch-free search against a linear
// scan at and around every extent boundary — below the first extent, on
// each Off and End, inside the last extent and past it — on leaves of 1,
// leafMin, leafCap and leafCap+leafSlack extents. It also checks that
// isCursor accepts search's cursor and rejects every other one.
func TestSearchBoundaries(t *testing.T) {
	for _, per := range []int{1, leafMin, leafCap, leafCap + leafSlack} {
		for _, nLeaves := range []int{1, 2, 3, 7, 40} {
			ix := boundaryIndex(nLeaves, per)
			// cursors lists every (k, i) in order, then the end cursor.
			var cursors [][2]int
			for k, l := range ix.leaves {
				for i := range l {
					cursors = append(cursors, [2]int{k, i})
				}
			}
			cursors = append(cursors, [2]int{len(ix.leaves), 0})
			linear := func(off int64) [2]int {
				for _, c := range cursors[:len(cursors)-1] {
					if ix.leaves[c[0]][c[1]].End > off {
						return c
					}
				}
				return cursors[len(cursors)-1]
			}
			probes := []int64{0, 1, 1 << 40}
			for _, l := range ix.leaves {
				for _, e := range l {
					for d := int64(-1); d <= 1; d++ {
						probes = append(probes, e.Off+d, e.End+d)
					}
				}
			}
			for _, off := range probes {
				k, i := ix.search(off)
				if want := linear(off); [2]int{k, i} != want {
					t.Fatalf("%d leaves of %d: search(%d) = %d.%d, linear scan %d.%d", nLeaves, per, off, k, i, want[0], want[1])
				}
				for _, c := range cursors {
					if got := ix.isCursor(c[0], c[1], off); got != (c == [2]int{k, i}) {
						t.Fatalf("%d leaves of %d: isCursor(%d.%d, %d) = %v, search gives %d.%d", nLeaves, per, c[0], c[1], off, got, k, i)
					}
				}
			}
			for _, c := range [][2]int{{-1, 0}, {0, -1}, {0, per}, {len(ix.leaves), 1}, {len(ix.leaves) + 1, 0}} {
				if ix.isCursor(c[0], c[1], 0) || ix.isCursor(c[0], c[1], 1<<40) {
					t.Fatalf("%d leaves of %d: isCursor accepts out-of-range %d.%d", nLeaves, per, c[0], c[1])
				}
			}
		}
	}
}

// TestDropRangeSeqSplitFill evicts a fill that later writes cut into
// several pieces of the fill's sequence, with and without a write over
// its tail, next to a same-sequence extent just past the range that the
// eviction must leave alone.
func TestDropRangeSeqSplitFill(t *testing.T) {
	const off, end = 4096, 4096 + 64<<10
	for _, tail := range []bool{false, true} {
		var ix Index
		sh := newShadow(end + 8192)
		insert := func(e Extent) {
			ix.Insert(e)
			sh.insert(e)
		}
		insert(Extent{Off: off, End: end, Seq: 1})
		insert(Extent{Off: end, End: end + 4096, Seq: 1})
		writes := [][2]int64{{8192, 12288}, {20480, 24576}, {40000, 40100}}
		if tail {
			writes = append(writes, [2]int64{end - 4096, end + 100})
		}
		for j, w := range writes {
			insert(Extent{Off: w[0], End: w[1], Seq: uint64(2 + j)})
		}
		want := sh.dropRangeSeq(off, end, 1)
		if got := ix.DropRangeSeq(off, end, 1); got != want {
			t.Fatalf("tail=%v: DropRangeSeq removed %d bytes, shadow %d", tail, got, want)
		}
		checkIndexInvariant(t, &ix)
		sh.check(t, &ix)
		ix.VisitRange(off, end, func(e Extent) bool {
			if e.Seq == 1 {
				t.Fatalf("tail=%v: seq-1 piece %+v survived the eviction", tail, e)
			}
			return true
		})
		if e, ok := ix.At(end + 200); !ok || e.Seq != 1 {
			t.Fatalf("tail=%v: the seq-1 extent past the range is gone", tail)
		}
	}
}

// sameLayout fails unless a and b hold the same extents in the same
// leaves.
func sameLayout(t *testing.T, a, b *Index) {
	t.Helper()
	if len(a.leaves) != len(b.leaves) || a.n != b.n {
		t.Fatalf("%d extents in %d leaves vs %d in %d", a.n, len(a.leaves), b.n, len(b.leaves))
	}
	for k := range a.leaves {
		if !slices.Equal(a.leaves[k], b.leaves[k]) || a.keys[k] != b.keys[k] {
			t.Fatalf("leaf %d differs", k)
		}
	}
}

// TestInsertAtHint checks that insertAt matches Insert — replaced bytes
// and leaf layout — whatever its hint: the cursor the previous insert
// returned, one that removals or a leaf join made stale, or an arbitrary
// one. Runs of ascending inserts into an unmapped stretch, like a fill's
// gaps, must find the returned cursor exact every time, across leaf
// splits.
func TestInsertAtHint(t *testing.T) {
	const domain = 1 << 26
	rng := rand.New(rand.NewPCG(40, 2))
	var a, b Index
	var seq uint64
	k, i := -1, 0
	exact, runs := 0, 0
	for op := 0; op < 4000; op++ {
		switch r := rng.IntN(10); {
		case r < 6: // a run of ascending gaps with the cursor carried
			var run []Extent
			pos := rng.Int64N(domain) &^ 4095
			for g := 0; g < 1+rng.IntN(16); g++ {
				run = append(run, Extent{Off: pos, End: pos + 1 + rng.Int64N(4096), Seq: seq + 1})
				seq++
				pos = run[g].End + rng.Int64N(2)*rng.Int64N(512)
			}
			fresh := !a.Covered(run[0].Off, run[0].Off+1) && a.NextStart(run[0].Off) >= pos
			for g, e := range run {
				if g > 0 && fresh {
					runs++
					if b.isCursor(k, i, e.Off) {
						exact++
					}
				}
				want := a.Insert(e)
				var got int64
				if got, k, i = b.insertAt(e, k, i); got != want {
					t.Fatalf("op %d: insertAt(%+v) replaced %d, Insert %d", op, e, got, want)
				}
			}
		case r < 8: // removals leave the carried cursor stale
			off := rng.Int64N(domain)
			end := off + 1 + rng.Int64N(1<<15)
			if x, y := a.RemoveRange(off, end), b.RemoveRange(off, end); x != y {
				t.Fatalf("op %d: RemoveRange(%d,%d) = %d vs %d", op, off, end, x, y)
			}
		default: // an arbitrary hint
			k, i = rng.IntN(len(b.leaves)+3)-1, rng.IntN(leafCap+leafSlack+2)-1
			off := rng.Int64N(domain)
			e := Extent{Off: off, End: off + 1 + rng.Int64N(1<<14), Seq: seq + 1}
			seq++
			want := a.Insert(e)
			var got int64
			if got, k, i = b.insertAt(e, k, i); got != want {
				t.Fatalf("op %d: insertAt(%+v) with hint replaced %d, Insert %d", op, e, got, want)
			}
		}
		sameLayout(t, &a, &b)
	}
	checkIndexInvariant(t, &b)
	t.Logf("%d extents in %d leaves; %d of %d carried cursors exact", b.Len(), len(b.leaves), exact, runs)
	if runs < 1000 || exact != runs {
		t.Fatalf("%d of %d carried cursors into unmapped stretches were exact, want all (and at least 1000)", exact, runs)
	}
}

// cacheIndexes builds a pair of indexes shaped like dk-cache-zipf's cache
// at steady state: a write log of 4 KiB blocks scattered over 1 GiB, and
// a read cache of 64 KiB read-around windows holding the gaps the log
// leaves in them. It also returns 4 KiB-aligned read offsets, a third at
// log blocks, a third inside filled windows and a third anywhere.
func cacheIndexes() (log, read *Index, offs []int64) {
	const (
		blocks  = 1 << 18 // 4 KiB blocks in 1 GiB
		logged  = 7168
		windows = 256 // 16 MiB of read cache
	)
	rng := rand.New(rand.NewPCG(3, 4))
	log, read = new(Index), new(Index)
	var seq uint64
	var blockOffs []int64
	for j := 0; j < logged; j++ {
		off := rng.Int64N(blocks) << 12
		blockOffs = append(blockOffs, off)
		seq++
		log.Insert(Extent{Off: off, End: off + 4096, Seg: j % 16, SegOff: off, Seq: seq})
	}
	var base []int64
	for j := 0; j < windows; j++ {
		ra0 := rng.Int64N(blocks>>4) << 16
		base = append(base, ra0)
		log.VisitGaps(ra0, ra0+64<<10, func(o, e int64) {
			seq++
			read.Insert(Extent{Off: o, End: e, Seq: seq})
		})
	}
	for j := 0; j < 4096; j++ {
		var off int64
		switch j % 3 {
		case 0:
			off = blockOffs[rng.IntN(logged)]
		case 1:
			off = base[rng.IntN(windows)] + rng.Int64N(16)<<12
		default:
			off = rng.Int64N(blocks) << 12
		}
		offs = append(offs, off)
	}
	return log, read, offs
}

// benchSink keeps benchmarked results live.
var benchSink int

// BenchmarkIndexSearch measures one lookup of a 4 KiB read's offset in
// the write log of cacheIndexes.
func BenchmarkIndexSearch(b *testing.B) {
	log, _, offs := cacheIndexes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, j := log.search(offs[i&4095])
		benchSink += k + j
	}
}

// BenchmarkCoveredUnion measures the hit test of a 4 KiB read against the
// write log and read cache of cacheIndexes.
func BenchmarkCoveredUnion(b *testing.B) {
	log, read, offs := cacheIndexes()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := offs[i&4095]
		if CoveredUnion(log, read, off, off+4096) {
			hits++
		}
	}
	benchSink += hits
	if b.N >= 4096 && hits < b.N/2 {
		b.Fatalf("%d of %d reads hit; the offsets should hit about two thirds of the time", hits, b.N)
	}
}
