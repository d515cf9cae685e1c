package rados

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// HdrBytes is the size charged for protocol headers, requests and acks.
const HdrBytes = 128

// ClusterConfig describes the simulated storage cluster. The defaults mirror
// the paper's testbed: 2 server nodes × 16 OSDs on a 10 GbE network.
type ClusterConfig struct {
	Nodes       int
	OSDsPerNode int
	// NICBitsPerSec is each node's line rate (default 10 Gb/s).
	NICBitsPerSec float64
	// NodeStack is the protocol stack profile of the OSD nodes.
	NodeStack netsim.StackCost
	// NodeStackWorkers is the number of parallel protocol workers per OSD
	// node (the testbed nodes are 28-core machines; default 4).
	NodeStackWorkers int
	// Profile is the per-OSD service model.
	Profile OSDProfile
	// NewStore builds each OSD's backing store (default NewMemStore).
	NewStore func() ObjectStore
	// NodeEngines, when non-nil (length Nodes), pins node i's OSDs — their
	// lanes, timers and service processes — to NodeEngines[i] instead of the
	// cluster engine. The split-domain testbed uses this to give every OSD
	// node its own topology domain; all OSD-side work for a node must then
	// run inside fabric arrivals on that node's domain.
	NodeEngines []*sim.Engine
}

// DefaultClusterConfig returns the paper-testbed shape.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:            2,
		OSDsPerNode:      16,
		NICBitsPerSec:    10e9,
		NodeStack:        netsim.SoftwareStack,
		NodeStackWorkers: 4,
		Profile:          DefaultOSDProfile(),
		NewStore:         func() ObjectStore { return NewMemStore() },
	}
}

// Cluster is the OSD cluster: CRUSH map, OSD daemons, node hosts on the
// fabric, and pools.
type Cluster struct {
	Eng    *sim.Engine
	Cfg    ClusterConfig
	Map    *crush.Map
	Root   int
	OSDs   []*OSD
	Fabric *netsim.Fabric
	// NodeHosts[i] is the fabric endpoint of server node i; OSD o lives on
	// node o / OSDsPerNode.
	NodeHosts []*netsim.Host

	pools      map[string]*Pool
	nextPoolID int
	// monitor, when attached, owns the in/out weights ActingSet consults.
	monitor *Monitor

	// Placement cache: ActingSet is a pure function of (CRUSH topology,
	// reweight table, pool, pg), so results are memoized per (pool, pg)
	// until either input changes. The monitor invalidates on every weight
	// edit (InvalidatePlacement); topology edits are caught lazily by
	// comparing the CRUSH map's Generation. epoch counts invalidations —
	// the cluster-local analogue of Ceph's osdmap epoch — and versions the
	// reweight table for the memo.
	place    *crush.Memo
	cacheGen uint64 // crush Map generation the epoch last caught up with
	epoch    uint64
}

// NewCluster builds the cluster and its fabric hosts. The fabric must
// already exist (the client side adds its own host to the same fabric).
func NewCluster(eng *sim.Engine, fabric *netsim.Fabric, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 || cfg.OSDsPerNode <= 0 {
		return nil, fmt.Errorf("rados: bad cluster shape %d x %d", cfg.Nodes, cfg.OSDsPerNode)
	}
	if cfg.NICBitsPerSec == 0 {
		cfg.NICBitsPerSec = 10e9
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func() ObjectStore { return NewMemStore() }
	}
	m, root, err := crush.BuildCluster(crush.ClusterSpec{
		Hosts:       cfg.Nodes,
		OSDsPerHost: cfg.OSDsPerNode,
	})
	if err != nil {
		return nil, err
	}
	// The 2-node testbed cannot satisfy host-level failure domains for
	// size-3 pools, so add device-level rules as Ceph operators do on
	// small clusters.
	m.AddRule(&crush.Rule{Name: "replicated_osd", Steps: []crush.Step{
		{Op: crush.OpTake, Arg1: root},
		{Op: crush.OpChooseFirstN, Arg1: 0, Arg2: crush.TypeOSD},
		{Op: crush.OpEmit},
	}})
	m.AddRule(&crush.Rule{Name: "ec_osd", Steps: []crush.Step{
		{Op: crush.OpTake, Arg1: root},
		{Op: crush.OpChooseIndep, Arg1: 0, Arg2: crush.TypeOSD},
		{Op: crush.OpEmit},
	}})

	c := &Cluster{
		Eng:      eng,
		Cfg:      cfg,
		Map:      m,
		Root:     root,
		Fabric:   fabric,
		pools:    make(map[string]*Pool),
		place:    crush.NewMemo(m),
		cacheGen: m.Generation(),
	}
	total := cfg.Nodes * cfg.OSDsPerNode
	for n := 0; n < cfg.Nodes; n++ {
		h, err := fabric.AddHost(fmt.Sprintf("node%d", n), cfg.NICBitsPerSec, cfg.NodeStack)
		if err != nil {
			return nil, err
		}
		if cfg.NodeStackWorkers > 0 {
			h.SetStackWorkers(cfg.NodeStackWorkers)
		}
		c.NodeHosts = append(c.NodeHosts, h)
	}
	for i := 0; i < total; i++ {
		oeng := eng
		if cfg.NodeEngines != nil {
			oeng = cfg.NodeEngines[i/cfg.OSDsPerNode]
		}
		c.OSDs = append(c.OSDs, NewOSD(oeng, i, cfg.Profile, cfg.NewStore()))
	}
	return c, nil
}

// NodeOf returns the fabric host of the node housing OSD id.
func (c *Cluster) NodeOf(osd int) *netsim.Host {
	return c.NodeHosts[osd/c.Cfg.OSDsPerNode]
}

// UpOSDs returns the number of OSDs currently up.
func (c *Cluster) UpOSDs() int {
	n := 0
	for _, o := range c.OSDs {
		if o.Up() {
			n++
		}
	}
	return n
}

// PoolKind distinguishes replicated from erasure-coded pools.
type PoolKind int

const (
	// ReplicatedPool stores Size full copies.
	ReplicatedPool PoolKind = iota
	// ECPool stores K data + M parity shards.
	ECPool
)

// Pool is a named placement domain.
type Pool struct {
	ID   int
	Name string
	Kind PoolKind
	// Size is the replica count (replicated pools).
	Size int
	// K and M are the erasure geometry (EC pools).
	K, M int
	// Code is the erasure codec (EC pools).
	Code *erasure.Code
	// PGs is the number of placement groups.
	PGs  uint32
	rule *crush.Rule
}

// Width returns the number of placement targets per PG.
func (p *Pool) Width() int {
	if p.Kind == ECPool {
		return p.K + p.M
	}
	return p.Size
}

// CreateReplicatedPool creates a pool with the given replica count.
func (c *Cluster) CreateReplicatedPool(name string, size int, pgs uint32) (*Pool, error) {
	if size <= 0 || pgs == 0 {
		return nil, fmt.Errorf("rados: bad pool size=%d pgs=%d", size, pgs)
	}
	if _, dup := c.pools[name]; dup {
		return nil, fmt.Errorf("rados: duplicate pool %q", name)
	}
	p := &Pool{
		ID:   c.nextPoolID,
		Name: name,
		Kind: ReplicatedPool,
		Size: size,
		PGs:  pgs,
		rule: c.Map.Rule("replicated_osd"),
	}
	c.nextPoolID++
	c.pools[name] = p
	return p, nil
}

// CreateECPool creates an erasure-coded pool with geometry k+m.
func (c *Cluster) CreateECPool(name string, k, m int, pgs uint32) (*Pool, error) {
	if pgs == 0 {
		return nil, fmt.Errorf("rados: bad pgs=%d", pgs)
	}
	if _, dup := c.pools[name]; dup {
		return nil, fmt.Errorf("rados: duplicate pool %q", name)
	}
	code, err := erasure.New(k, m, erasure.VandermondeRS)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		ID:   c.nextPoolID,
		Name: name,
		Kind: ECPool,
		K:    k,
		M:    m,
		Code: code,
		PGs:  pgs,
		rule: c.Map.Rule("ec_osd"),
	}
	c.nextPoolID++
	c.pools[name] = p
	return p, nil
}

// Pool returns the named pool, or nil.
func (c *Cluster) Pool(name string) *Pool { return c.pools[name] }

// fnv32a hashes an object name for PG mapping.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// PGOf maps an object name to its placement group.
func (c *Cluster) PGOf(pool *Pool, obj string) uint32 {
	return fnv32a(obj) % pool.PGs
}

// ActingSet returns the CRUSH placement for a PG: the ordered OSD ids that
// hold the PG's replicas or shards. It reflects the current map and weights
// but not transient up/down state — exactly like Ceph's "acting set" before
// temp-PG remapping; callers handle down members (degraded ops).
//
// The result is served from the placement cache on repeat calls and is
// shared between all callers: treat it as READ-ONLY. The cache flushes
// whenever the monitor edits a weight or the CRUSH map's topology changes
// (see InvalidatePlacement); the hit path performs no CRUSH descent and no
// allocation.
func (c *Cluster) ActingSet(pool *Pool, pg uint32) ([]int, error) {
	c.syncPlacement()
	return c.actingIn(c.place, pool, pg)
}

// actingIn selects a PG's acting set through memo m, under the monitor's
// in/out table (all in without a monitor), versioned by the cluster epoch.
func (c *Cluster) actingIn(m *crush.Memo, pool *Pool, pg uint32) ([]int, error) {
	var rw []uint32
	if c.monitor != nil {
		rw = c.monitor.reweight
	}
	return m.Select(pool.rule, uint32(pool.ID), pg, pool.Width(), rw, c.epoch)
}

// syncPlacement catches CRUSH topology edits made directly on c.Map (bucket
// membership, weights, rules) by comparing generations, advancing the
// epoch when one happened.
func (c *Cluster) syncPlacement() {
	if g := c.Map.Generation(); g != c.cacheGen {
		c.epoch++
		c.cacheGen = g
	}
}

// InvalidatePlacement advances the map epoch, so the placement cache
// flushes on its next lookup. The monitor calls it on every
// in/out/reweight edit; callers that mutate placement inputs outside the
// Cluster/Monitor API may call it directly.
func (c *Cluster) InvalidatePlacement() {
	c.epoch++
	c.cacheGen = c.Map.Generation()
}

// MapEpoch returns a counter that advances every time cached placements
// become stale — on monitor weight edits and CRUSH topology changes. Equal
// epochs guarantee ActingSet answers have not changed in between.
func (c *Cluster) MapEpoch() uint64 {
	c.syncPlacement()
	return c.epoch
}

// Monitor returns the attached monitor, or nil.
func (c *Cluster) Monitor() *Monitor { return c.monitor }

// PrimaryFor returns the acting primary for a PG: the first up member of
// the acting set. ok is false when every member is down.
func (c *Cluster) PrimaryFor(acting []int) (int, bool) {
	for _, o := range acting {
		if o >= 0 && o < len(c.OSDs) && c.OSDs[o].Up() {
			return o, true
		}
	}
	return -1, false
}
