package rados

import (
	"slices"
	"sort"

	"repro/internal/crush"
	"repro/internal/sim"
)

// Backfiller moves data to its new home after a map change — the execution
// half of Ceph's backfill, complementing PlanRebalance's estimate. It is
// functional: object bytes really move between stores, throttled by a
// per-stream bandwidth and a bounded number of concurrent streams, so
// recovery time and interference are measurable in virtual time. It works
// on any ObjectStore: a NullStore cluster moves the same objects, as
// zeros.
type Backfiller struct {
	c *Cluster
	// Streams bounds concurrent object copies cluster-wide.
	Streams int
	// BytesPerSec is the per-stream copy bandwidth (network + media).
	BytesPerSec float64
	// PerObjectCost is the fixed overhead per object moved.
	PerObjectCost sim.Duration
}

// NewBackfiller returns a backfiller with Ceph-like default throttles.
func NewBackfiller(c *Cluster) *Backfiller {
	return &Backfiller{
		c:             c,
		Streams:       8,
		BytesPerSec:   200e6,
		PerObjectCost: 200 * sim.Microsecond,
	}
}

// BackfillReport summarises one recovery pass.
type BackfillReport struct {
	Pool         string
	ObjectsMoved int
	BytesMoved   int64
	// Degraded counts objects that could not be sourced (all old holders
	// down).
	Degraded int
	Elapsed  sim.Duration
}

// BackfillPool moves every object whose placement changed between the two
// reweight tables and calls done with the report once the last copy has
// landed (before BackfillPool returns when nothing moves or on an error).
// Replicated pools move whole objects; EC pools move rank-addressed shards.
func (b *Backfiller) BackfillPool(pool *Pool, before, after []uint32, done func(BackfillReport, error)) {
	eng := b.c.Eng
	start := eng.Now()
	rep := BackfillReport{Pool: pool.Name}
	streams := eng.NewResource(b.Streams)
	outstanding := 0
	var resume func()
	finishOne := func() {
		outstanding--
		if outstanding == 0 {
			// One Schedule(0) hop after the last copy: the hop is part
			// of the recovery scenario's event order.
			eng.Schedule(0, resume)
		}
	}

	objects := b.objectsByPG(pool)
	pgs := make([]uint32, 0, len(objects))
	for pg := range objects {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })

	// When after is the monitor's current table, the new placements are
	// the cluster's cached acting sets, which its clients share.
	current := b.c.monitor != nil && slices.Equal(after, b.c.monitor.reweight)
	for _, pg := range pgs {
		x := crush.Hash2(pg, uint32(pool.ID))
		old, err := b.c.Map.Select(pool.rule, x, pool.Width(), before)
		if err != nil {
			done(rep, err)
			return
		}
		var new_ []int
		if current {
			new_, err = b.c.ActingSet(pool, pg)
		} else {
			new_, err = b.c.Map.Select(pool.rule, x, pool.Width(), after)
		}
		if err != nil {
			done(rep, err)
			return
		}
		moves := b.movesFor(pool, old, new_)
		if len(moves) == 0 {
			continue
		}
		for _, obj := range objects[pg] {
			for _, mv := range moves {
				key := obj
				if pool.Kind == ECPool {
					key = StripeShard(obj, mv.rank)
				}
				var src ObjectStore
				var size int
				var rebuilt []byte
				if o := b.findSource(key, old, mv.to); o >= 0 {
					src = b.c.OSDs[o].Store
					size = src.Size(key)
				} else if pool.Kind == ECPool {
					// The shard's only holder is gone: rebuild it from the
					// surviving shards (recovery, not plain backfill).
					rebuilt = b.reconstructShard(pool, obj, mv.rank, old)
					size = len(rebuilt)
				}
				if size == 0 {
					rep.Degraded++
					continue
				}
				dst := b.c.OSDs[mv.to].Store
				outstanding++
				rep.ObjectsMoved++
				rep.BytesMoved += int64(size)
				cost := b.PerObjectCost + sim.Duration(float64(size)/b.BytesPerSec*1e9)
				// One copy: wait for a stream, hold it for the copy time,
				// then release it and land the bytes, read from the source
				// as the copy ends.
				eng.Schedule(0, func() {
					streams.AcquireThen(1, func() {
						eng.Schedule(cost, func() {
							streams.Release(1)
							data := rebuilt
							if src != nil {
								data, _ = src.Read(key, 0, size)
							}
							dst.Write(key, 0, data)
							finishOne()
						})
					})
				})
			}
		}
	}
	if outstanding == 0 {
		done(rep, nil)
		return
	}
	resume = func() {
		rep.Elapsed = eng.Now().Sub(start)
		done(rep, nil)
	}
}

type shardMove struct {
	rank int
	to   int
}

// movesFor lists the (rank, destination) pairs that changed.
func (b *Backfiller) movesFor(pool *Pool, old, new_ []int) []shardMove {
	var moves []shardMove
	if pool.Kind == ECPool {
		// Rank-addressed: a change at rank r moves shard r.
		for r := 0; r < len(new_) && r < len(old); r++ {
			if new_[r] != old[r] && new_[r] >= 0 && new_[r] != crush.ItemNone {
				moves = append(moves, shardMove{rank: r, to: new_[r]})
			}
		}
		return moves
	}
	// Replicated: any new member absent from the old set gets a full copy.
	in := map[int]bool{}
	for _, o := range old {
		in[o] = true
	}
	for _, n := range new_ {
		if n >= 0 && n != crush.ItemNone && !in[n] {
			moves = append(moves, shardMove{rank: 0, to: n})
		}
	}
	return moves
}

// reconstructShard rebuilds one EC shard from the stripe's surviving
// shards on the old acting set, or nil when fewer than k survive.
func (b *Backfiller) reconstructShard(pool *Pool, stripe string, rank int, old []int) []byte {
	shards := make([][]byte, pool.K+pool.M)
	have := 0
	for r, o := range old {
		if r >= len(shards) || r == rank || o < 0 || o >= len(b.c.OSDs) || !b.c.OSDs[o].Up() {
			continue
		}
		st := b.c.OSDs[o].Store
		key := StripeShard(stripe, r)
		if st.Size(key) == 0 {
			continue
		}
		d, _ := st.Read(key, 0, st.Size(key))
		shards[r] = d
		have++
	}
	if have < pool.K {
		return nil
	}
	if err := pool.Code.Reconstruct(shards); err != nil {
		return nil
	}
	return shards[rank]
}

// findSource picks an up old holder of key, excluding the destination.
func (b *Backfiller) findSource(key string, old []int, exclude int) int {
	for _, o := range old {
		if o < 0 || o == exclude || o >= len(b.c.OSDs) || !b.c.OSDs[o].Up() {
			continue
		}
		if b.c.OSDs[o].Store.Size(key) > 0 {
			return o
		}
	}
	return -1
}

// objectsByPG groups the pool's logical objects by placement group.
func (b *Backfiller) objectsByPG(pool *Pool) map[uint32][]string {
	out := map[uint32][]string{}
	for _, n := range b.c.objectNames(pool) {
		pg := b.c.PGOf(pool, stripeBase(n))
		out[pg] = append(out[pg], n)
	}
	return out
}
