package rbd

import (
	"errors"
	"fmt"
	"testing"
)

// TestObjectNameMatchesFormat: interned, out-of-range and negative indices
// all name objects exactly as the rbd_data convention formats them.
func TestObjectNameMatchesFormat(t *testing.T) {
	_, _, _, pool := newStack(t)
	im, _ := NewImage("vol7", 64<<20, 4<<20, pool)
	for _, i := range []int64{0, 1, 15, 16, 1 << 40, -1} {
		want := fmt.Sprintf("rbd_data.%s.%016x", im.Name, i)
		for pass := 0; pass < 2; pass++ {
			if got := im.ObjectName(i); got != want {
				t.Fatalf("ObjectName(%d) pass %d = %q, want %q", i, pass, got, want)
			}
		}
	}
}

// TestObjectNameInternedAllocs: after the first use of an index, naming it
// again allocates nothing.
func TestObjectNameInternedAllocs(t *testing.T) {
	_, _, _, pool := newStack(t)
	im, _ := NewImage("vol", 64<<20, 4<<20, pool)
	for i := int64(0); i < im.Objects(); i++ {
		im.ObjectName(i)
	}
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		im.ObjectName(i)
		i = (i + 1) % im.Objects()
	})
	if allocs != 0 {
		t.Fatalf("interned ObjectName allocated %.1f/op, want 0", allocs)
	}
}

// TestVisitExtentsRangeCheckFirst: an out-of-range request fails with
// ErrOutOfRange before any extent is visited, and in-range requests visit
// exactly what Extents returns.
func TestVisitExtentsRangeCheckFirst(t *testing.T) {
	_, _, _, pool := newStack(t)
	im, _ := NewImage("v", 8<<20, 1<<20, pool)
	visits := 0
	err := im.VisitExtents(8<<20-4096, 8192, false, func(Extent) error { visits++; return nil })
	if !errors.Is(err, ErrOutOfRange) || visits != 0 {
		t.Fatalf("overrun: err %v after %d visits, want ErrOutOfRange before any", err, visits)
	}
	exts, err := im.Extents(1<<20-100, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	var seen []Extent
	if err := im.VisitExtents(1<<20-100, 2<<20, true, func(e Extent) error {
		seen = append(seen, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || len(exts) != len(seen) {
		t.Fatalf("visited %v, Extents %v, want 3 each", seen, exts)
	}
	for i := range seen {
		if seen[i] != exts[i] {
			t.Fatalf("extent %d: visited %+v, Extents %+v", i, seen[i], exts[i])
		}
	}
}
