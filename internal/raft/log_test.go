package raft

import "testing"

func TestLogAppendTruncateCompact(t *testing.T) {
	var l Log
	for i := uint64(1); i <= 10; i++ {
		l.Append(Entry{Index: i, Term: 1 + i/6, Size: 100})
	}
	if l.LastIndex() != 10 || l.Len() != 10 {
		t.Fatalf("last=%d len=%d", l.LastIndex(), l.Len())
	}
	if tm, ok := l.TermAt(5); !ok || tm != 1 {
		t.Fatalf("TermAt(5) = %d, %v", tm, ok)
	}
	// Conflict truncation drops a suffix.
	l.TruncateFrom(8)
	if l.LastIndex() != 7 {
		t.Fatalf("after truncate last=%d", l.LastIndex())
	}
	l.Append(Entry{Index: 8, Term: 3, Size: 1})
	// Compaction folds a prefix into the snapshot edge.
	l.CompactTo(5)
	if l.SnapIndex() != 5 || l.SnapTerm() != 1 {
		t.Fatalf("snap edge (%d, %d)", l.SnapIndex(), l.SnapTerm())
	}
	if _, ok := l.TermAt(4); ok {
		t.Fatal("compacted entry still answers TermAt")
	}
	if tm, ok := l.TermAt(5); !ok || tm != 1 {
		t.Fatalf("snapshot edge TermAt = %d, %v", tm, ok)
	}
	if _, ok := l.Slice(3, 0); ok {
		t.Fatal("Slice below the snapshot edge must report compacted")
	}
	if es, ok := l.Slice(6, 2); !ok || len(es) != 2 || es[0].Index != 6 {
		t.Fatalf("Slice(6,2) = %v, %v", es, ok)
	}
	if es, ok := l.Slice(99, 0); !ok || len(es) != 0 {
		t.Fatalf("Slice beyond tail = %v, %v", es, ok)
	}
	// Truncation cannot cross the snapshot edge.
	l.TruncateFrom(2)
	if l.Len() != 0 || l.LastIndex() != 5 {
		t.Fatalf("truncate across edge: len=%d last=%d", l.Len(), l.LastIndex())
	}
	// InstallSnapshot reset.
	l.ResetTo(20, 4)
	if l.LastIndex() != 20 || l.LastTerm() != 4 || l.Len() != 0 {
		t.Fatalf("after reset: last=%d term=%d len=%d", l.LastIndex(), l.LastTerm(), l.Len())
	}
}
