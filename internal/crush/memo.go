package crush

// Memo is a lazily filled memo of one Map's placements of pool PGs. The
// CRUSH input of PG pg in pool is Hash2(pg, pool) (Ceph's pps), computed
// only when the memo misses. The map is fixed once built, so entries stay
// valid while the caller's reweight version is unchanged; the first Select
// that sees a new version drops only the entries the edit can have changed
// (see reweighted). Nothing is computed or allocated until the first Select,
// and each pool's table grows only to the largest PG looked up.
//
// Answers are shared between callers: treat them as read-only. A Memo is
// not safe for concurrent use — each simulation shard that places I/O owns
// its own (the cluster's ActingSet cache, each card CRUSH kernel, each
// split-domain client).
type Memo struct {
	m   *Map
	ver uint64
	// rw is a copy of the reweight table the entries were selected under.
	rw   []uint32
	sets [][]memoEntry // [pool][pg]
	// Hits and Misses count Select calls served from the memo and computed
	// into it.
	Hits, Misses uint64
}

// memoEntry is one memoised placement and the width it was selected for.
type memoEntry struct {
	numRep int
	set    []int
}

// maxMemoPG bounds the memo's tables: a pool id or PG at or above it is
// selected without memoisation.
const maxMemoPG = 1 << 20

// NewMemo returns an empty memo over m.
func NewMemo(m *Map) *Memo { return &Memo{m: m} }

// Select returns rule's placement of PG pg of pool into numRep targets
// under the reweight table (nil = every device fully in), served from the
// memo when valid. rule must be the same on every call for one pool. ver
// versions the reweight table: callers pass a new ver whenever the table's
// contents change. Errors are not memoised.
func (mm *Memo) Select(rule *Rule, pool, pg uint32, numRep int, reweight []uint32, ver uint64) ([]int, error) {
	if ver != mm.ver {
		mm.reweighted(ver, reweight)
	}
	if int(pool) < len(mm.sets) && int(pg) < len(mm.sets[pool]) {
		if e := mm.sets[pool][pg]; e.set != nil && e.numRep == numRep {
			mm.Hits++
			return e.set, nil
		}
	}
	mm.Misses++
	set, err := mm.m.Select(rule, Hash2(pg, pool), numRep, reweight)
	if err != nil || pool >= maxMemoPG || pg >= maxMemoPG {
		return set, err
	}
	for int(pool) >= len(mm.sets) {
		mm.sets = append(mm.sets, nil)
	}
	pgs := mm.sets[pool]
	for int(pg) >= len(pgs) {
		pgs = append(pgs, memoEntry{})
	}
	pgs[pg] = memoEntry{numRep, set}
	mm.sets[pool] = pgs
	return set, nil
}

// reset empties the memo in place and records the inputs it now reflects.
func (mm *Memo) reset(ver uint64, reweight []uint32) {
	for _, pgs := range mm.sets {
		clear(pgs)
	}
	mm.ver = ver
	mm.keep(reweight)
}

// keep records a copy of the reweight table the entries now reflect.
func (mm *Memo) keep(reweight []uint32) {
	if reweight == nil {
		mm.rw = nil
		return
	}
	mm.rw = append(mm.rw[:0], reweight...)
}

// reweighted moves the memo to reweight version ver. If the edit only
// lowered device weights, an entry whose set holds none of the lowered
// devices is still exact: CRUSH consults a device's reweight only when a
// descent chooses that device, and a device chosen under the old weights
// is either in the set or rejected, which a lower weight rejects again. A
// descent that never chose a lowered device makes the same draws and
// decisions under the new table. So only the entries that hold a lowered
// device are dropped; any other edit flushes the memo.
func (mm *Memo) reweighted(ver uint64, reweight []uint32) {
	if mm.rw == nil || len(reweight) != len(mm.rw) {
		mm.reset(ver, reweight)
		return
	}
	var lowered []bool
	for i, w := range reweight {
		switch old := mm.rw[i]; {
		case w > old:
			mm.reset(ver, reweight)
			return
		case w < old:
			if lowered == nil {
				lowered = make([]bool, len(reweight))
			}
			lowered[i] = true
		}
	}
	for _, pgs := range mm.sets {
		for i, e := range pgs {
			for _, o := range e.set {
				if o >= 0 && o < len(lowered) && lowered[o] {
					pgs[i] = memoEntry{}
					break
				}
			}
		}
	}
	mm.ver = ver
	mm.keep(reweight)
}
