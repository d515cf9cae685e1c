// Package lsvd models a log-structured, crash-consistent client-side
// write-back cache (LSVD-style) on an NVMe-class local device: an
// append-only segmented write log with an in-memory extent index, a
// read cache with read-around fill, and background flush/GC draining
// sealed segments to a slower backend tier.
//
// The package is pure simulation: no payload bytes move, only extent
// bookkeeping and device/backend timing charges. It depends only on
// internal/sim so that faults, core and experiments can all wire it in
// without import cycles.
package lsvd

import "slices"

// Extent maps the virtual-disk byte range [Off, End) to a location in
// the cache: segment Seg at byte offset SegOff within that segment's
// payload area. Seq is the global append sequence of the record the
// extent came from; newer sequences shadow older ones.
type Extent struct {
	Off, End int64
	Seg      int
	SegOff   int64
	Seq      uint64
}

const (
	// leafCap is the most extents a leaf holds between operations; a
	// splice that grows a leaf past it splits the leaf in two.
	leafCap = 32
	// leafMin is the fill below which a leaf (unless it is the only one)
	// is joined with a neighbour, so the leaf count stays O(n/leafCap).
	leafMin = leafCap / 4
	// leafSlack is the transient growth one splice can add to a leaf
	// before it is split: Insert trims one extent into three.
	leafSlack = 2
)

// Index is a sorted, non-overlapping set of extents over the virtual
// disk, stored as an ordered list of leaves of at most leafCap extents.
// keys holds each leaf's last End densely, so locating an offset is a
// binary search over keys and then one within a single leaf, and a
// splice moves at most one leaf's extents rather than the whole index.
// Lookups, range walks and splices are allocation-free once the leaf
// pool is warm. The newest-wins property is positional: Insert always
// replaces whatever it overlaps, so callers must insert in sequence
// order (the device completes appends FIFO, which guarantees it).
type Index struct {
	leaves [][]Extent // each non-empty, ≤ leafCap extents, capacity leafCap+leafSlack
	keys   []int64    // keys[k] = End of leaves[k]'s last extent
	n      int        // total extents
	spare  [][]Extent // recycled leaf buffers
}

// Len returns the number of extents in the index.
func (ix *Index) Len() int { return ix.n }

// Bytes returns the total number of bytes the index maps.
func (ix *Index) Bytes() int64 {
	var n int64
	for _, l := range ix.leaves {
		for i := range l {
			n += l[i].End - l[i].Off
		}
	}
	return n
}

// Reset empties the index, retaining its leaves for reuse.
func (ix *Index) Reset() {
	for _, l := range ix.leaves {
		ix.freeLeaf(l)
	}
	clear(ix.leaves)
	ix.leaves, ix.keys, ix.n = ix.leaves[:0], ix.keys[:0], 0
}

func (ix *Index) newLeaf() []Extent {
	if k := len(ix.spare); k > 0 {
		l := ix.spare[k-1]
		ix.spare[k-1] = nil
		ix.spare = ix.spare[:k-1]
		return l
	}
	return make([]Extent, 0, leafCap+leafSlack)
}

func (ix *Index) freeLeaf(l []Extent) { ix.spare = append(ix.spare, l[:0]) }

// search returns the cursor (leaf k, slot i) of the first extent with
// End > off, or (len(ix.leaves), 0) if there is none.
func (ix *Index) search(off int64) (k, i int) {
	keys := ix.keys
	if len(keys) == 0 || keys[len(keys)-1] <= off {
		return len(keys), 0
	}
	// Both lower bounds, over keys and then inside leaf k, are branch-free
	// four-way searches. The answer lies in keys[k : k+n]. A step loads the
	// last end of each of the first three quarters, three independent loads
	// so that a step waits on memory once, and skips one quarter for each
	// end at or below off, counted from the sign bit of off-end (offsets
	// are non-negative, so it cannot overflow). The last quarter keeps the
	// remainder; binary steps finish the last three candidates.
	n := len(keys)
	for ; n > 3; n -= 3 * (n >> 2) {
		q := n >> 2
		k += q&^int((off-keys[k+q-1])>>63) + q&^int((off-keys[k+2*q-1])>>63) + q&^int((off-keys[k+3*q-1])>>63)
	}
	for ; n > 1; n -= n >> 1 {
		h := n >> 1
		k += h &^ int((off-keys[k+h-1])>>63)
	}
	l := ix.leaves[k] // l[len(l)-1].End = keys[k] > off
	n = len(l)
	for ; n > 3; n -= 3 * (n >> 2) {
		q := n >> 2
		i += q&^int((off-l[i+q-1].End)>>63) + q&^int((off-l[i+2*q-1].End)>>63) + q&^int((off-l[i+3*q-1].End)>>63)
	}
	for ; n > 1; n -= n >> 1 {
		h := n >> 1
		i += h &^ int((off-l[i+h-1].End)>>63)
	}
	return k, i
}

// isCursor reports whether (k, i) is the cursor search(off) returns.
func (ix *Index) isCursor(k, i int, off int64) bool {
	if k < 0 || k > len(ix.leaves) {
		return false
	}
	if k == len(ix.leaves) {
		return i == 0 && (k == 0 || ix.keys[k-1] <= off)
	}
	l := ix.leaves[k]
	if i < 0 || i >= len(l) || l[i].End <= off {
		return false
	}
	if i > 0 {
		return l[i-1].End <= off
	}
	return k == 0 || ix.keys[k-1] <= off
}

// next advances cursor (k, i) by one extent in index order.
func (ix *Index) next(k, i int) (int, int) {
	if i++; i == len(ix.leaves[k]) {
		return k + 1, 0
	}
	return k, i
}

// cut is the result of walking the extents that overlap a range.
type cut struct {
	k, i        int   // cursor just past the overlapped extents; i may equal the leaf's length
	bytes       int64 // bytes the overlapped extents map inside the range
	left, right Extent
	hasLeft     bool // left is the part of the first extent before the range
	hasRight    bool // right is the part of the last extent past the range
}

// overlap walks the extents overlapping [off, end) from search's cursor
// (k, i). The returned cursor stays in the leaf of the last overlapped
// extent, so a range inside one leaf yields an in-leaf splice. The
// index must be non-empty.
func (ix *Index) overlap(k, i int, off, end int64) (c cut) {
	if k == len(ix.leaves) {
		k, i = k-1, len(ix.leaves[k-1])
	}
	for {
		l := ix.leaves[k]
		if i == len(l) {
			if k+1 == len(ix.leaves) || ix.leaves[k+1][0].Off >= end {
				break
			}
			k, i = k+1, 0
			continue
		}
		old := l[i]
		if old.Off >= end {
			break
		}
		lo, hi := old.Off, old.End
		if lo < off {
			c.left = old
			c.left.End = off
			c.hasLeft = true
			lo = off
		}
		if hi > end {
			c.right = old
			c.right.SegOff += end - old.Off
			c.right.Off = end
			c.hasRight = true
			hi = end
		}
		c.bytes += hi - lo
		i++
	}
	c.k, c.i = k, i
	return c
}

// Insert maps e's range, trimming or splitting anything it overlaps,
// and returns the number of previously-mapped bytes it replaced.
func (ix *Index) Insert(e Extent) int64 {
	n, _, _ := ix.insertAt(e, -1, 0)
	return n
}

// insertAt is Insert given a guess (k, i) at search(e.Off)'s cursor; a
// wrong guess costs one search. It also returns a guess at the cursor
// just past e, which is exact for a next insert above e when nothing
// lies between them and no leaf join moved e.
func (ix *Index) insertAt(e Extent, k, i int) (replaced int64, nk, ni int) {
	if e.End <= e.Off {
		return 0, k, i
	}
	if len(ix.leaves) == 0 {
		ix.leaves = append(ix.leaves, append(ix.newLeaf(), e))
		ix.keys = append(ix.keys, e.End)
		ix.n = 1
		return 0, 1, 0
	}
	if !ix.isCursor(k, i, e.Off) {
		k, i = ix.search(e.Off)
	}
	c := ix.overlap(k, i, e.Off, e.End)
	if k == len(ix.leaves) { // e lies past every extent: append to the last leaf
		k, i = c.k, c.i
	}
	var repl [3]Extent
	r := repl[:0]
	if c.hasLeft {
		r = append(r, c.left)
	}
	p := i + len(r) // e's slot in leaf k
	r = append(r, e)
	if c.hasRight {
		r = append(r, c.right)
	}
	ix.splice(k, i, c.k, c.i, r)
	// If settle split leaf k, e may now be in the second half, leaf k+1.
	if k < len(ix.leaves) && p >= len(ix.leaves[k]) {
		p -= len(ix.leaves[k])
		k++
	}
	if p++; k < len(ix.leaves) && p == len(ix.leaves[k]) {
		k, p = k+1, 0
	}
	return c.bytes, k, p
}

// RemoveRange unmaps [off, end), splitting boundary extents, and
// returns the number of bytes removed.
func (ix *Index) RemoveRange(off, end int64) int64 {
	if end <= off {
		return 0
	}
	k, i := ix.search(off)
	if k == len(ix.leaves) {
		return 0
	}
	return ix.remove(k, i, off, end)
}

// remove unmaps [off, end) given search(off)'s cursor (k, i), which
// must point at an extent.
func (ix *Index) remove(k, i int, off, end int64) int64 {
	c := ix.overlap(k, i, off, end)
	if c.bytes == 0 {
		return 0
	}
	var repl [2]Extent
	r := repl[:0]
	if c.hasLeft {
		r = append(r, c.left)
	}
	if c.hasRight {
		r = append(r, c.right)
	}
	ix.splice(k, i, c.k, c.i, r)
	return c.bytes
}

// splice replaces the extents from cursor (k, i) up to cursor (k2, j)
// with r, then restores the leaf invariants around the leaves touched.
func (ix *Index) splice(k, i, k2, j int, r []Extent) {
	if k == k2 {
		l := ix.leaves[k]
		n := len(l)
		d := len(r) - (j - i)
		l = l[:n+d]
		copy(l[j+d:], l[j:n])
		copy(l[i:], r)
		ix.leaves[k] = l
		ix.n += d
		ix.settle(k)
		return
	}
	// The range crosses leaves: keep leaf k's head plus r, drop the
	// leaves wholly inside, keep leaf k2's tail.
	a, b := ix.leaves[k], ix.leaves[k2]
	gone := len(a) - i + j
	for m := k + 1; m < k2; m++ {
		gone += len(ix.leaves[m])
		ix.freeLeaf(ix.leaves[m])
	}
	ix.leaves[k] = append(a[:i], r...)
	ix.leaves[k2] = b[:copy(b, b[j:])]
	ix.leaves = slices.Delete(ix.leaves, k+1, k2)
	ix.keys = slices.Delete(ix.keys, k+1, k2)
	ix.n += len(r) - gone
	ix.settle(k + 1)
	ix.settle(k)
}

// settle restores the leaf invariants at leaf k after a splice changed
// its length: an empty leaf is recycled, an overfull one split in half,
// and one below leafMin balanced with a neighbour. A neighbour the
// splice did not touch holds at least leafMin, so the result does too;
// a cross-leaf splice settles its right leaf first, so that any join of
// its two touched leaves is settled again by the second call.
func (ix *Index) settle(k int) {
	l := ix.leaves[k]
	switch {
	case len(l) == 0:
		ix.freeLeaf(l)
		ix.leaves = slices.Delete(ix.leaves, k, k+1)
		ix.keys = slices.Delete(ix.keys, k, k+1)
	case len(l) > leafCap:
		h := append(ix.newLeaf(), l[len(l)/2:]...)
		ix.leaves[k] = l[:len(l)/2]
		ix.keys[k] = l[len(l)/2-1].End
		ix.leaves = slices.Insert(ix.leaves, k+1, h)
		ix.keys = slices.Insert(ix.keys, k+1, h[len(h)-1].End)
	case len(l) < leafMin && len(ix.leaves) > 1:
		if k+1 == len(ix.leaves) {
			k--
		}
		x, y := ix.balance(ix.leaves[k], ix.leaves[k+1])
		ix.leaves[k] = x
		ix.keys[k] = x[len(x)-1].End
		if y == nil {
			ix.leaves = slices.Delete(ix.leaves, k+1, k+2)
			ix.keys = slices.Delete(ix.keys, k+1, k+2)
		} else {
			ix.leaves[k+1] = y
			ix.keys[k+1] = y[len(y)-1].End
		}
	default:
		ix.keys[k] = l[len(l)-1].End
	}
}

// balance evens out adjacent leaves x and y: into x alone if they fit
// in one leaf (y is recycled and returned nil), else by moving extents
// across the boundary until each holds half. Order is preserved.
func (ix *Index) balance(x, y []Extent) ([]Extent, []Extent) {
	t := len(x) + len(y)
	switch {
	case t <= leafCap:
		x = append(x, y...)
		ix.freeLeaf(y)
		return x, nil
	case len(x) < t/2:
		m := t/2 - len(x)
		x = append(x, y[:m]...)
		y = y[:copy(y, y[m:])]
	default:
		m := len(x) - t/2
		y = y[:len(y)+m]
		copy(y[m:], y)
		copy(y, x[len(x)-m:])
		x = x[:len(x)-m]
	}
	return x, y
}

// compact restores the leaf invariants after a sweep that may have
// emptied or thinned any number of leaves: empty leaves are recycled
// and thin ones balanced with their left neighbour, in one pass.
func (ix *Index) compact() {
	out := 0
	for _, l := range ix.leaves {
		if len(l) == 0 {
			ix.freeLeaf(l)
			continue
		}
		if out > 0 && (len(l) < leafMin || len(ix.leaves[out-1]) < leafMin) {
			x, y := ix.balance(ix.leaves[out-1], l)
			ix.leaves[out-1] = x
			if y == nil {
				continue
			}
			l = y
		}
		ix.leaves[out] = l
		out++
	}
	clear(ix.leaves[out:])
	ix.leaves = ix.leaves[:out]
	ix.keys = ix.keys[:out]
	for k, l := range ix.leaves {
		ix.keys[k] = l[len(l)-1].End
	}
}

// DropRangeSeq unmaps the portions of [off, end) whose extents carry
// exactly sequence seq, returning the bytes removed. Used by the read
// cache's FIFO eviction: an entry is only evicted if the range is
// still owned by the fill that queued it.
func (ix *Index) DropRangeSeq(off, end int64, seq uint64) int64 {
	var removed int64
	for {
		k, i := ix.search(off)
		// Find the next extent inside [off, end) with a matching seq.
		for k < len(ix.leaves) && ix.leaves[k][i].Off < end && ix.leaves[k][i].Seq != seq {
			k, i = ix.next(k, i)
		}
		if k == len(ix.leaves) || ix.leaves[k][i].Off >= end {
			return removed
		}
		// Extents skipped above end at or before this one's Off, so (k, i)
		// is also search(lo)'s cursor.
		lo, hi := max(ix.leaves[k][i].Off, off), min(ix.leaves[k][i].End, end)
		removed += ix.remove(k, i, lo, hi)
		if hi >= end {
			return removed
		}
		off = hi
	}
}

// DropSeg unmaps every extent stored in segment seg (after its live
// data has been flushed), returning the bytes removed.
func (ix *Index) DropSeg(seg int) int64 {
	var removed int64
	for k, l := range ix.leaves {
		out := l[:0]
		for _, e := range l {
			if e.Seg == seg {
				removed += e.End - e.Off
				continue
			}
			out = append(out, e)
		}
		ix.n -= len(l) - len(out)
		ix.leaves[k] = out
	}
	if removed > 0 {
		ix.compact()
	}
	return removed
}

// VisitRange calls fn for each extent overlapping [off, end) in
// ascending order, stopping early if fn returns false. The extents
// passed to fn are clipped to the range. Allocation-free.
func (ix *Index) VisitRange(off, end int64, fn func(Extent) bool) {
	for k, i := ix.search(off); k < len(ix.leaves); k, i = ix.next(k, i) {
		e := ix.leaves[k][i]
		if e.Off >= end {
			return
		}
		if e.Off < off {
			e.SegOff += off - e.Off
			e.Off = off
		}
		if e.End > end {
			e.End = end
		}
		if !fn(e) {
			return
		}
	}
}

// CollectSeg appends every extent stored in segment seg to buf and
// returns it. Used by the flusher to snapshot a segment's live data.
func (ix *Index) CollectSeg(seg int, buf []Extent) []Extent {
	for _, l := range ix.leaves {
		for _, e := range l {
			if e.Seg == seg {
				buf = append(buf, e)
			}
		}
	}
	return buf
}

// SegBytes returns the number of live bytes the index maps in segment
// seg.
func (ix *Index) SegBytes(seg int) int64 {
	var n int64
	for _, l := range ix.leaves {
		for i := range l {
			if l[i].Seg == seg {
				n += l[i].End - l[i].Off
			}
		}
	}
	return n
}

// Covered reports whether [off, end) is fully mapped by the index.
func (ix *Index) Covered(off, end int64) bool {
	if end <= off {
		return true
	}
	pos := off
	for k, i := ix.search(off); k < len(ix.leaves); k, i = ix.next(k, i) {
		e := &ix.leaves[k][i]
		if e.Off >= end || e.Off > pos {
			return false
		}
		if e.End >= end {
			return true
		}
		pos = e.End
	}
	return false
}

// CoveredUnion reports whether [off, end) is fully covered by the
// union of indexes a and b. Allocation-free: a greedy walk that extends
// the covered frontier with whichever index reaches further from the
// current position, searching b only where a stops short of end.
func CoveredUnion(a, b *Index, off, end int64) bool {
	for pos := off; pos < end; {
		next := extendFrom(a, pos, end)
		if next < end {
			next = max(next, extendFrom(b, pos, end))
		}
		if next <= pos {
			return false
		}
		pos = next
	}
	return true
}

// extendFrom returns how far contiguous coverage in ix reaches from pos,
// looking no further once it reaches end, or pos if ix does not map pos.
func extendFrom(ix *Index, pos, end int64) int64 {
	k, i := ix.search(pos)
	if k == len(ix.leaves) || ix.leaves[k][i].Off > pos {
		return pos
	}
	reach := ix.leaves[k][i].End
	for reach < end {
		if k, i = ix.next(k, i); k == len(ix.leaves) || ix.leaves[k][i].Off > reach {
			break
		}
		reach = ix.leaves[k][i].End
	}
	return reach
}

// VisitGaps calls fn for each maximal sub-range of [off, end) that is
// NOT mapped by the index. Used by read-around fill to cache only the
// clean bytes of a fetched window.
func (ix *Index) VisitGaps(off, end int64, fn func(off, end int64)) {
	pos := off
	for k, i := ix.search(off); k < len(ix.leaves); k, i = ix.next(k, i) {
		e := &ix.leaves[k][i]
		if e.Off >= end {
			break
		}
		if e.Off > pos {
			fn(pos, e.Off)
		}
		if e.End > pos {
			pos = e.End
		}
		if pos >= end {
			return
		}
	}
	if pos < end {
		fn(pos, end)
	}
}

// At returns the extent containing pos, if any.
func (ix *Index) At(pos int64) (Extent, bool) {
	k, i := ix.search(pos)
	if k < len(ix.leaves) && ix.leaves[k][i].Off <= pos {
		return ix.leaves[k][i], true
	}
	return Extent{}, false
}

// NextStart returns the start of the first extent beginning after pos
// (assuming pos itself is unmapped), or a sentinel past any disk.
func (ix *Index) NextStart(pos int64) int64 {
	if k, i := ix.search(pos); k < len(ix.leaves) {
		return ix.leaves[k][i].Off
	}
	return 1 << 62
}
