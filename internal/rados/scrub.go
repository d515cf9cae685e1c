package rados

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Scrubber performs replica consistency checks — the deep-scrub half of
// Ceph's data-integrity machinery. For replicated pools it byte-compares
// every copy of every object; for EC pools it re-verifies each stripe's
// parity with the pool's codec. Scrubbing requires functional (MemStore)
// clusters, since metadata-only stores have nothing to compare.
type Scrubber struct {
	c *Cluster
	// ReadCost is the simulated media cost per scanned object per replica.
	ReadCost sim.Duration
}

// NewScrubber attaches a scrubber to the cluster.
func NewScrubber(c *Cluster) *Scrubber {
	return &Scrubber{c: c, ReadCost: 50 * sim.Microsecond}
}

// Inconsistency describes one damaged object.
type Inconsistency struct {
	Pool   string
	Object string
	// BadOSDs are the devices whose copy/shard disagrees with the
	// majority (replicated) or breaks parity (EC).
	BadOSDs []int
}

func (i Inconsistency) String() string {
	return fmt.Sprintf("%s/%s on osds %v", i.Pool, i.Object, i.BadOSDs)
}

// ScrubReport summarises one pass.
type ScrubReport struct {
	Pool            string
	ObjectsScanned  int
	Inconsistencies []Inconsistency
}

// Clean reports whether the scrub found no damage.
func (r ScrubReport) Clean() bool { return len(r.Inconsistencies) == 0 }

// ScrubPool scans every object of the pool, one object after another,
// charging ReadCost of virtual time per copy examined, and calls done with
// the report.
func (s *Scrubber) ScrubPool(pool *Pool, done func(ScrubReport, error)) {
	rep := ScrubReport{Pool: pool.Name}
	objs := s.c.objectNames(pool)
	scrub := s.scrubReplicated
	if pool.Kind == ECPool {
		scrub = s.scrubECStripe
	}
	inTurn(len(objs), func(i int, next func(error)) {
		rep.ObjectsScanned++
		scrub(pool, objs[i], func(inc *Inconsistency, err error) {
			if inc != nil {
				rep.Inconsistencies = append(rep.Inconsistencies, *inc)
			}
			next(err)
		})
	}, func(err error) { done(rep, err) })
}

// inTurn runs step for i = 0..n-1, each once the one before calls next
// with nil, and then calls done with the first error or nil.
func inTurn(n int, step func(i int, next func(error)), done func(error)) {
	var run func(i int)
	run = func(i int) {
		if i == n {
			done(nil)
			return
		}
		step(i, func(err error) {
			if err != nil {
				done(err)
				return
			}
			run(i + 1)
		})
	}
	run(0)
}

// pace runs access for i = 0..n-1 in turn, each ReadCost of virtual time
// after the one before, as its media access completes.
func (s *Scrubber) pace(n int, access func(i int) error, done func(error)) {
	inTurn(n, func(i int, next func(error)) {
		s.c.Eng.Schedule(s.ReadCost, func() { next(access(i)) })
	}, done)
}

var errScrubStore = errors.New("rados: scrub requires MemStore clusters")

// objectNames lists the logical objects in the cluster's stores, sorted.
// For EC pools, shard keys ("obj:off.sN") collapse to stripes.
func (c *Cluster) objectNames(pool *Pool) []string {
	seen := map[string]bool{}
	for _, osd := range c.OSDs {
		for _, name := range osd.Store.ObjectNames() {
			if i := strings.LastIndex(name, ".s"); pool.Kind == ECPool && i > 0 {
				name = name[:i]
			}
			seen[name] = true
		}
	}
	return sortedKeys(seen)
}

type copyData struct {
	osd  int
	data []byte
}

// scrubReplicated reads the copies on the up members of the acting set
// and majority-compares them.
func (s *Scrubber) scrubReplicated(pool *Pool, obj string, done func(*Inconsistency, error)) {
	acting, err := s.c.ActingSet(pool, s.c.PGOf(pool, obj))
	if err != nil {
		done(nil, err)
		return
	}
	var copies []copyData
	for _, o := range acting {
		if o >= 0 && s.c.OSDs[o].Up() {
			copies = append(copies, copyData{osd: o})
		}
	}
	s.pace(len(copies), func(i int) error {
		ms, ok := s.c.OSDs[copies[i].osd].Store.(*MemStore)
		if !ok {
			return errScrubStore
		}
		copies[i].data, _ = ms.Read(obj, 0, ms.Size(obj))
		return nil
	}, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(majority(pool, obj, copies), nil)
	})
}

// majority blames every copy whose content differs from the most common
// one, or returns nil when all agree.
func majority(pool *Pool, obj string, copies []copyData) *Inconsistency {
	if len(copies) < 2 {
		return nil
	}
	// Majority vote by content.
	counts := map[string][]int{}
	for _, c := range copies {
		counts[string(c.data)] = append(counts[string(c.data)], c.osd)
	}
	if len(counts) == 1 {
		return nil
	}
	// The most common content wins; everything else is bad.
	var bestKey string
	best := -1
	for k, osds := range counts {
		if len(osds) > best {
			best = len(osds)
			bestKey = k
		}
	}
	inc := &Inconsistency{Pool: pool.Name, Object: obj}
	for k, osds := range counts {
		if k != bestKey {
			inc.BadOSDs = append(inc.BadOSDs, osds...)
		}
	}
	sort.Ints(inc.BadOSDs)
	return inc
}

// scrubECStripe gathers the stored shards of a stripe on its up OSDs and
// verifies parity.
func (s *Scrubber) scrubECStripe(pool *Pool, stripe string, done func(*Inconsistency, error)) {
	acting, err := s.c.ActingSet(pool, s.c.PGOf(pool, stripeBase(stripe)))
	if err != nil {
		done(nil, err)
		return
	}
	shards := make([][]byte, pool.K+pool.M)
	osdOf := make([]int, pool.K+pool.M)
	var ranks []int
	for rank, o := range acting {
		if rank >= len(shards) || o < 0 || !s.c.OSDs[o].Up() {
			continue
		}
		ms, ok := s.c.OSDs[o].Store.(*MemStore)
		if !ok {
			done(nil, errScrubStore)
			return
		}
		if ms.Size(StripeShard(stripe, rank)) > 0 {
			ranks = append(ranks, rank)
		}
	}
	s.pace(len(ranks), func(i int) error {
		rank := ranks[i]
		ms := s.c.OSDs[acting[rank]].Store.(*MemStore)
		key := StripeShard(stripe, rank)
		shards[rank], _ = ms.Read(key, 0, ms.Size(key))
		osdOf[rank] = acting[rank]
		return nil
	}, func(error) { done(verifyStripe(pool, stripe, shards, osdOf)) })
}

// verifyStripe checks a gathered stripe's parity and blames the shards
// whose reconstruction from the others differs from what is stored.
func verifyStripe(pool *Pool, stripe string, shards [][]byte, osdOf []int) (*Inconsistency, error) {
	complete := true
	for _, sh := range shards {
		if sh == nil {
			complete = false
			break
		}
	}
	if !complete {
		return nil, nil // degraded, not inconsistent
	}
	ok, err := pool.Code.Verify(shards)
	if err != nil || ok {
		return nil, err
	}
	// Identify the bad shard(s): try dropping each rank and reconstructing;
	// if the reconstruction differs from what is stored, that rank is bad.
	inc := &Inconsistency{Pool: pool.Name, Object: stripe}
	for rank := range shards {
		work := make([][]byte, len(shards))
		copy(work, shards)
		work[rank] = nil
		if err := pool.Code.Reconstruct(work); err != nil {
			continue
		}
		if okNow, _ := pool.Code.Verify(work); okNow && !bytes.Equal(work[rank], shards[rank]) {
			inc.BadOSDs = append(inc.BadOSDs, osdOf[rank])
		}
	}
	sort.Ints(inc.BadOSDs)
	return inc, nil
}

// stripeBase strips the ":off" suffix of a stripe key to recover the
// logical object name used for placement.
func stripeBase(stripe string) string {
	if i := strings.LastIndex(stripe, ":"); i > 0 {
		return stripe[:i]
	}
	return stripe
}
