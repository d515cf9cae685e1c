package raft

import "fmt"

// Entry is one replicated log record: the metadata a leader ships to its
// followers per client write. The payload itself is timing-charged on the
// member OSDs (and, in functional mode, stored there); the log keeps only
// its size, the same economy the fan-out paths use.
type Entry struct {
	Index uint64
	Term  uint64
	Size  uint32 // payload bytes
}

// entryBytes is the wire size of one Entry (8 + 8 + 4): the per-entry
// share of an AppendEntries message.
const entryBytes = 20

// Log is one member's replicated log with snapshot-based truncation: a
// prefix ending at (SnapIndex, SnapTerm) has been compacted away; entries
// holds (SnapIndex, LastIndex]. Entry i lives at entries[i-SnapIndex-1].
type Log struct {
	snapIndex uint64
	snapTerm  uint64
	entries   []Entry
}

// LastIndex returns the index of the newest entry (or the snapshot edge).
func (l *Log) LastIndex() uint64 {
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Index
	}
	return l.snapIndex
}

// LastTerm returns the term of the newest entry (or the snapshot edge).
func (l *Log) LastTerm() uint64 {
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Term
	}
	return l.snapTerm
}

// SnapIndex returns the last index compacted into the snapshot.
func (l *Log) SnapIndex() uint64 { return l.snapIndex }

// SnapTerm returns the term at the snapshot edge.
func (l *Log) SnapTerm() uint64 { return l.snapTerm }

// Len returns the number of live (uncompacted) entries.
func (l *Log) Len() int { return len(l.entries) }

// TermAt returns the term of entry idx; ok is false when idx is compacted
// away or beyond the end. The snapshot edge itself answers with SnapTerm.
func (l *Log) TermAt(idx uint64) (uint64, bool) {
	if idx == l.snapIndex {
		return l.snapTerm, true
	}
	if idx <= l.snapIndex || idx > l.LastIndex() {
		return 0, false
	}
	return l.entries[idx-l.snapIndex-1].Term, true
}

// Append adds e at the tail. It panics on a non-contiguous index: callers
// (the member state machine) always append LastIndex+1.
func (l *Log) Append(e Entry) {
	if e.Index != l.LastIndex()+1 {
		panic(fmt.Sprintf("raft: append index %d after %d", e.Index, l.LastIndex()))
	}
	l.entries = append(l.entries, e)
}

// TruncateFrom drops every entry with index >= idx (conflict resolution on
// followers). Indexes at or below the snapshot edge cannot be truncated.
func (l *Log) TruncateFrom(idx uint64) {
	if idx <= l.snapIndex {
		idx = l.snapIndex + 1
	}
	if idx > l.LastIndex() {
		return
	}
	l.entries = l.entries[:idx-l.snapIndex-1]
}

// CompactTo discards entries up to and including idx, folding them into
// the snapshot edge. Compacting past the end or below the current edge is
// clamped, so callers can pass their commit index unconditionally.
func (l *Log) CompactTo(idx uint64) {
	if idx <= l.snapIndex {
		return
	}
	if idx > l.LastIndex() {
		idx = l.LastIndex()
	}
	if idx == l.snapIndex {
		return
	}
	term, _ := l.TermAt(idx)
	n := idx - l.snapIndex
	l.entries = append(l.entries[:0], l.entries[n:]...)
	l.snapIndex = idx
	l.snapTerm = term
}

// ResetTo reinitializes the log to an installed snapshot, discarding every
// live entry (InstallSnapshot on a follower that fell behind truncation).
func (l *Log) ResetTo(snapIndex, snapTerm uint64) {
	l.snapIndex = snapIndex
	l.snapTerm = snapTerm
	l.entries = l.entries[:0]
}

// Slice returns up to max entries starting at index from, for shipping in
// an AppendEntries batch. An empty result means from is beyond the tail;
// ok is false when from is compacted away (the caller must snapshot).
func (l *Log) Slice(from uint64, max int) ([]Entry, bool) {
	if from <= l.snapIndex {
		return nil, false
	}
	if from > l.LastIndex() {
		return nil, true
	}
	lo := from - l.snapIndex - 1
	hi := uint64(len(l.entries))
	if max > 0 && hi-lo > uint64(max) {
		hi = lo + uint64(max)
	}
	return l.entries[lo:hi], true
}
