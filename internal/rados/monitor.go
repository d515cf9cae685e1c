package rados

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/sim"
)

// Monitor is the cluster-map authority: it owns the per-device in/out
// weights, detects failed OSDs through heartbeats, and notifies subscribers
// of map changes — a single-node distillation of the Ceph monitor quorum,
// enough to model cluster shrink and regrowth (paper §IV-C). The CRUSH map
// itself is fixed once built, so the in/out table is the only placement
// input that changes; every edit advances the cluster's map epoch
// (Cluster.MapEpoch).
type Monitor struct {
	c *Cluster

	reweight []uint32
	// outSince records when a down OSD was first seen down.
	downSince map[int]sim.Time

	// HeartbeatEvery is the OSD liveness poll interval.
	HeartbeatEvery sim.Duration
	// Grace is how long an OSD may be down before being marked out.
	Grace sim.Duration

	subs    []func()
	started bool
	next    sim.EventID // the pending heartbeat

	// Stats.
	MarkedOut uint64
	MarkedIn  uint64
}

// NewMonitor attaches a monitor to the cluster. All devices start fully in.
func NewMonitor(c *Cluster) *Monitor {
	rw := make([]uint32, c.Map.MaxDevices())
	for i := range rw {
		rw[i] = crush.WeightOne
	}
	m := &Monitor{
		c:              c,
		reweight:       rw,
		downSince:      make(map[int]sim.Time),
		HeartbeatEvery: 2 * sim.Second,
		Grace:          20 * sim.Second,
	}
	c.monitor = m
	// Attaching a monitor swaps the reweight table ActingSet consults
	// (nil -> all-in); any placements cached before that are stale.
	c.InvalidatePlacement()
	return m
}

// Reweights returns a copy of the current in/out table.
func (m *Monitor) Reweights() []uint32 {
	return append([]uint32(nil), m.reweight...)
}

// Subscribe registers a map-change callback, invoked as an event after
// every in/out edit (Cluster.MapEpoch reads the current epoch). The fleet
// runs' recovery subscribes this way to start backfill at the mark-out.
func (m *Monitor) Subscribe(fn func()) { m.subs = append(m.subs, fn) }

func (m *Monitor) bump() {
	// Weight tables are placement inputs; every edit stales the cluster's
	// cached acting sets.
	m.c.InvalidatePlacement()
	for _, fn := range m.subs {
		m.c.Eng.Schedule(0, fn)
	}
}

// MarkOut sets an OSD's weight to zero (data remaps away from it).
func (m *Monitor) MarkOut(osd int) error {
	if osd < 0 || osd >= len(m.reweight) {
		return fmt.Errorf("rados: no osd.%d", osd)
	}
	if m.reweight[osd] == 0 {
		return nil
	}
	m.reweight[osd] = 0
	m.MarkedOut++
	m.bump()
	return nil
}

// MarkIn restores an OSD to full weight.
func (m *Monitor) MarkIn(osd int) error {
	if osd < 0 || osd >= len(m.reweight) {
		return fmt.Errorf("rados: no osd.%d", osd)
	}
	if m.reweight[osd] == crush.WeightOne {
		return nil
	}
	m.reweight[osd] = crush.WeightOne
	m.MarkedIn++
	m.bump()
	return nil
}

// Start arms the heartbeat: every HeartbeatEvery it checks OSD liveness;
// an OSD down for longer than Grace is marked out, and a marked-out OSD
// that has come back up is marked in.
//
// The heartbeat keeps an event scheduled at all times, so a started
// monitor prevents Engine.Run from draining: bound runs with RunUntil or
// call Stop when the scenario ends.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	m.next = m.c.Eng.Schedule(m.HeartbeatEvery, m.heartbeat)
}

// heartbeat is one liveness check; it arms the next one after it.
func (m *Monitor) heartbeat() {
	m.checkHeartbeats(m.c.Eng.Now())
	m.next = m.c.Eng.Schedule(m.HeartbeatEvery, m.heartbeat)
}

// Stop cancels the pending heartbeat, so a stopped monitor leaves no event
// behind.
func (m *Monitor) Stop() {
	if m.started {
		m.started = false
		m.c.Eng.Cancel(m.next)
	}
}

func (m *Monitor) checkHeartbeats(now sim.Time) {
	for id, osd := range m.c.OSDs {
		if !osd.Up() {
			since, seen := m.downSince[id]
			if !seen {
				m.downSince[id] = now
				continue
			}
			if now.Sub(since) >= m.Grace && m.reweight[id] != 0 {
				m.MarkOut(id)
			}
			continue
		}
		// Up again: clear and mark in if it had been ejected.
		if _, seen := m.downSince[id]; seen {
			delete(m.downSince, id)
			if m.reweight[id] == 0 {
				m.MarkIn(id)
			}
		}
	}
}

// RebalanceReport quantifies the data movement a map change causes.
type RebalanceReport struct {
	Pool      string
	TotalPGs  int
	MovedPGs  int
	MovedFrac float64
	// ShardMoves counts individual replica/shard relocations.
	ShardMoves int
}

// PlanRebalance computes the PG movement between two reweight tables for a
// pool: how many PGs change acting sets and how many shard relocations that
// implies. It is the planning half of Ceph's backfill machinery.
func (c *Cluster) PlanRebalance(pool *Pool, before, after []uint32) (RebalanceReport, error) {
	rep := RebalanceReport{Pool: pool.Name, TotalPGs: int(pool.PGs)}
	for pg := uint32(0); pg < pool.PGs; pg++ {
		x := crush.Hash2(pg, uint32(pool.ID))
		a, err := c.Map.Select(pool.rule, x, pool.Width(), before)
		if err != nil {
			return rep, err
		}
		b, err := c.Map.Select(pool.rule, x, pool.Width(), after)
		if err != nil {
			return rep, err
		}
		moves := shardDiff(a, b)
		if moves > 0 {
			rep.MovedPGs++
			rep.ShardMoves += moves
		}
	}
	if rep.TotalPGs > 0 {
		rep.MovedFrac = float64(rep.MovedPGs) / float64(rep.TotalPGs)
	}
	return rep, nil
}

// shardDiff counts members of b not present in a (new shard locations).
func shardDiff(a, b []int) int {
	in := make(map[int]bool, len(a))
	for _, v := range a {
		if v >= 0 {
			in[v] = true
		}
	}
	moves := 0
	for _, v := range b {
		if v >= 0 && !in[v] {
			moves++
		}
	}
	return moves
}
