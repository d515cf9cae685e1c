package core

import (
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/raft"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestbedConfig shapes one simulated deployment (defaults mirror the
// paper's industrial-lab testbed: one client, two server nodes with 16 OSDs
// each, 10 GbE).
type TestbedConfig struct {
	Nodes       int
	OSDsPerNode int
	// ReplicaSize is the replicated pool's copy count (2 on the two-node
	// testbed).
	ReplicaSize int
	// ECK/ECM is the erasure geometry.
	ECK, ECM int
	// PGs is the placement-group count per pool.
	PGs uint32
	// ImageBytes is the virtual disk size; ObjectBytes the RBD stripe unit.
	ImageBytes  int64
	ObjectBytes int
	// Functional stores real payload bytes (MemStore + real codec work);
	// benchmarks leave it false for metadata-only stores.
	Functional bool
	// Jitter enables OSD service-time noise (off for exactly reproducible
	// latency assertions).
	Jitter bool
	// CM is the cost model; zero-value fields are filled from
	// DefaultCostModel.
	CM *CostModel
	// Resilience configures client-side fault tolerance (deadlines,
	// retries, failover). The zero value disables it: no policy objects are
	// built and every stack's hot path is byte-for-byte the pre-resilience
	// one.
	Resilience ResilienceConfig
	// Raft parameterizes the per-PG Raft groups backing repl-raft stacks
	// (zero-value fields are filled from raft.DefaultConfig). It has no
	// effect on repl-primary stacks: the Raft system is only instantiated
	// when a repl-raft spec is built.
	Raft raft.Config

	// Shards is the shard count of a SplitDomains testbed. Without
	// SplitDomains it must be 0 or 1: the testbed runs on one plain engine.
	Shards int
	// SplitDomains partitions the classic testbed itself over the shard
	// group: the client host — rings, kernel layers and the LSVD cache
	// device — forms one topology domain on shard 0, and every OSD node
	// gets its own topology domain, placed round-robin over shards
	// 1..Shards-1, with the network propagation delay as the conservative
	// lookahead between all of them. Requires Shards >= 2 and restricts
	// the buildable stacks to host-only software-placement shapes (the
	// card models and the resilience/fault layers drive cluster state
	// from the host side). Event order is NOT byte-identical to the
	// single-domain testbed — the replication protocol becomes
	// arrival-driven, including the inter-node replica legs — but the
	// canonical (time, domain, sequence) merge makes every run replay
	// bit-identically for any shard count >= 2: the domain list depends
	// only on Nodes, never on where the domains land.
	SplitDomains bool
}

// DefaultTestbedConfig returns the paper-testbed shape in benchmark mode.
func DefaultTestbedConfig() TestbedConfig {
	cm := DefaultCostModel()
	return TestbedConfig{
		Nodes:       2,
		OSDsPerNode: 16,
		ReplicaSize: 2,
		ECK:         4,
		ECM:         2,
		PGs:         256,
		ImageBytes:  8 << 30,
		ObjectBytes: 4 << 20,
		Functional:  false,
		Jitter:      true,
		CM:          &cm,
	}
}

// Testbed is one fully wired deployment: engine, fabric, cluster, pools and
// images. Build exactly one Stack per testbed (stacks own fabric hosts and
// FPGA state; experiments use a fresh testbed per run for isolation and
// determinism).
type Testbed struct {
	Eng *sim.Engine
	// Shards is the engine group of a SplitDomains testbed (nil otherwise);
	// Eng is then the host-domain engine and Eng.Run drives the group.
	Shards  *sim.Shards
	Cfg     TestbedConfig
	CM      CostModel
	Fabric  *netsim.Fabric
	Cluster *rados.Cluster
	// ReplPool/ECPool and their images.
	ReplPool, ECPool   *rados.Pool
	ReplImage, ECImage *rbd.Image
	// Res, when non-nil (Cfg.Resilience.Enabled), is the resilience state
	// shared by every stack built on this testbed: one policy, one jitter
	// stream, one set of counters.
	Res *Resilience
	// RaftSys is the per-PG multi-Raft backend over the replicated pool,
	// created by the first repl-raft BuildStack and shared afterwards; nil
	// on repl-primary testbeds.
	RaftSys *raft.System
	// Tracer, when non-nil (EnableTracing), drives per-I/O span tracing in
	// stacks built afterwards. traceHost is the host-domain sink; on a
	// split-domain testbed each OSD node records into a sink on its own
	// node domain.
	Tracer    *trace.Tracer
	traceHost *trace.Sink
	// osdEngs, on a split-domain testbed, is the engine of each OSD node's
	// domain in node order (nil otherwise).
	osdEngs []*sim.Engine
	// QoSSched, when non-nil, is the per-tenant QoS elevator installed by a
	// qos-tbucket/qos-dmclock stack built on this testbed; experiments read
	// its dispatch/throttle accounting after a run.
	QoSSched blockmq.QoSReporter
}

// EnableTracing attaches a per-I/O span tracer to the testbed. It must be
// called before building the stack. Sinks are registered in a fixed
// order — host domain first, then the OSD-side domain — so span IDs and
// the finalized merge order are deterministic. The OSD service spans are
// wired immediately (OSDs already exist); stack-side instrumentation
// points pick the sink up at BuildStack time.
func (tb *Testbed) EnableTracing(t *trace.Tracer) {
	if t == nil || tb.Tracer != nil {
		return
	}
	tb.Tracer = t
	tb.traceHost = t.Sink(tb.Eng, "host")
	if tb.Cfg.SplitDomains {
		// One sink per node domain, registered in node order so span IDs
		// and the finalized merge order stay deterministic.
		for n, oe := range tb.osdEngs {
			sink := t.Sink(oe, fmt.Sprintf("osd-node%d", n))
			for o := n * tb.Cfg.OSDsPerNode; o < (n+1)*tb.Cfg.OSDsPerNode; o++ {
				tb.Cluster.OSDs[o].SetTraceSink(sink)
			}
		}
	} else {
		for _, o := range tb.Cluster.OSDs {
			o.SetTraceSink(tb.traceHost)
		}
	}
	if tb.Res != nil {
		tb.Res.trace = tb.traceHost
	}
}

// NewTestbed builds the cluster side.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.CM == nil {
		cm := DefaultCostModel()
		cfg.CM = &cm
	}
	var eng *sim.Engine
	var group *sim.Shards
	var hostDom sim.DomainID
	var osdDoms []sim.DomainID
	var osdEngs []*sim.Engine
	switch {
	case cfg.SplitDomains:
		if cfg.Shards < 2 {
			return nil, fmt.Errorf("core: SplitDomains needs Shards >= 2 (host and OSD domains on separate shards), got %d", cfg.Shards)
		}
		if cfg.Resilience.Enabled {
			return nil, fmt.Errorf("core: resilience is not supported with SplitDomains (retry attempts and failover read cluster state from the host domain)")
		}
		group = sim.NewShards(cfg.Shards, cfg.CM.Propagation)
		hostDom, eng = group.AddDomainAt("host", 0)
		// One topology domain per OSD node, round-robin over the non-host
		// shards. The domain list is a function of Nodes alone; shard
		// placement only balances work, it cannot reorder the canonical
		// cross-domain merge.
		osdDoms = make([]sim.DomainID, cfg.Nodes)
		osdEngs = make([]*sim.Engine, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			osdDoms[n], osdEngs[n] = group.AddDomainAt(
				fmt.Sprintf("osd-node%d", n), 1+n%(cfg.Shards-1))
		}
	case cfg.Shards > 1:
		return nil, fmt.Errorf("core: Shards = %d needs SplitDomains (a testbed without domains runs on one engine)", cfg.Shards)
	default:
		eng = sim.NewEngine()
	}
	// Topology hint: pre-size the event pool for the testbed's steady state
	// (per-OSD queues plus in-flight fabric messages) so benchmark runs never
	// grow the heap on the hot path.
	clusterEng := eng
	if osdEngs != nil {
		clusterEng = osdEngs[0]
		for _, oe := range osdEngs {
			oe.Reserve(cfg.OSDsPerNode*64 + 2048)
		}
	} else {
		clusterEng.Reserve(cfg.Nodes*cfg.OSDsPerNode*64 + 4096)
	}
	fabric := netsim.NewFabric(eng, cfg.CM.Propagation)
	if cfg.SplitDomains {
		fabric.Shard(group, hostDom)
	}
	ccfg := rados.DefaultClusterConfig()
	ccfg.Nodes = cfg.Nodes
	ccfg.OSDsPerNode = cfg.OSDsPerNode
	ccfg.NICBitsPerSec = cfg.CM.NICBitsPerSec
	ccfg.NodeStack = cfg.CM.HostStack
	if !cfg.Jitter {
		ccfg.Profile.JitterFrac = 0
	}
	if cfg.Functional {
		ccfg.NewStore = func() rados.ObjectStore { return rados.NewMemStore() }
	} else {
		ccfg.NewStore = func() rados.ObjectStore { return rados.NewNullStore() }
	}
	ccfg.NodeEngines = osdEngs
	cluster, err := rados.NewCluster(clusterEng, fabric, ccfg)
	if err != nil {
		return nil, err
	}
	if cfg.SplitDomains {
		// The cluster added its node hosts under the fabric's default (host)
		// domain; pin each to its node's own domain before anything runs.
		for n, h := range cluster.NodeHosts {
			fabric.PlaceHost(h, osdDoms[n], osdEngs[n])
		}
	}
	repl, err := cluster.CreateReplicatedPool("rbd", cfg.ReplicaSize, cfg.PGs)
	if err != nil {
		return nil, err
	}
	ec, err := cluster.CreateECPool("rbd-ec", cfg.ECK, cfg.ECM, cfg.PGs)
	if err != nil {
		return nil, err
	}
	replImg, err := rbd.NewImage("vol0", cfg.ImageBytes, cfg.ObjectBytes, repl)
	if err != nil {
		return nil, err
	}
	ecImg, err := rbd.NewImage("vol0ec", cfg.ImageBytes, cfg.ObjectBytes, ec)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{
		Eng:       eng,
		Shards:    group,
		Cfg:       cfg,
		CM:        *cfg.CM,
		Fabric:    fabric,
		Cluster:   cluster,
		ReplPool:  repl,
		ECPool:    ec,
		ReplImage: replImg,
		ECImage:   ecImg,
		osdEngs:   osdEngs,
	}
	if cfg.Resilience.Enabled {
		tb.Res = newResilience(eng, cfg.Resilience)
	}
	return tb, nil
}

// poolAndImage selects the pool/image pair for the mode.
func (tb *Testbed) poolAndImage(ec bool) (*rados.Pool, *rbd.Image) {
	if ec {
		return tb.ECPool, tb.ECImage
	}
	return tb.ReplPool, tb.ReplImage
}

// raftSystem returns (creating on first use) the testbed's multi-Raft
// backend over the replicated pool.
func (tb *Testbed) raftSystem() *raft.System {
	if tb.RaftSys == nil {
		tb.RaftSys = raft.NewSystem(tb.Cluster, tb.ReplPool, tb.Cfg.Raft)
		tb.RaftSys.Sink = tb.traceHost
	}
	return tb.RaftSys
}
