package experiments

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
)

// This file is the fleet driver behind the scale family and the tenant
// family's fleet grid. A cell is one rados.Cluster on one engine: OSDs/16
// nodes on NullStores, a size-3 replicated pool at 8 PGs per OSD, and four
// software clients per node. Each client runs a seeded closed loop of
// 4 KiB ops (70% reads) over one 4 MiB object per volume, 20 volumes per
// OSD. A failure run crashes one OSD mid-load and recovers with the
// machinery the recovery and fault families run: the monitor's heartbeat
// marks the OSD out, clients retry what the crash failed, and the
// backfiller re-replicates every moved PG from the mark-out epoch on.

const (
	fleetOSDsPerNode    = 16
	fleetClientsPerNode = 4
	fleetPGsPerOSD      = 8
	fleetVolumesPerOSD  = 20
	fleetVolumeBytes    = 4 << 20
	fleetBlockBytes     = 4096
	fleetReadPct        = 70
	fleetMaxQD          = 4
	// fleetOpBudget caps one run's ops: each client issues cfg.Ops, or
	// this budget spread over the clients when that is fewer, so the
	// largest cluster stays tractable.
	fleetOpBudget = 500_000
	// fleetHeartbeat and fleetGrace pace the monitor for runs that last
	// tens of milliseconds of virtual time.
	fleetHeartbeat = 500 * sim.Microsecond
	fleetGrace     = sim.Millisecond
)

// fleetSpec is one run of a fleet cell.
type fleetSpec struct {
	osds, opsPerClient, qd int
	seed                   uint64
	// tenants > 0 draws each op's tenant from a Zipf(theta) over
	// 1..tenants and records latency per tenant.
	tenants int
	theta   float64
	// failAt > 0 crashes one OSD, drawn from the seed, at that instant.
	failAt sim.Duration
}

// fleetScenario sizes a cell for about osds OSDs at cfg's scale.
func fleetScenario(cfg Config, osds int) fleetSpec {
	clients := max(osds/fleetOSDsPerNode, 1) * fleetClientsPerNode
	return fleetSpec{osds: osds, opsPerClient: min(cfg.Ops, fleetOpBudget/clients),
		qd: min(cfg.QueueDepth, fleetMaxQD), seed: cfg.Seed}
}

// fleetResult is one run's outcome.
type fleetResult struct {
	osds, nodes, clients, volumes int
	// ops counts completed ops, failed those that completed with an error.
	ops     uint64
	failed  int
	lat     *metrics.Histogram
	tenants *metrics.TenantSet // nil on an untenanted run
	// elapsed is the virtual time of the last client completion.
	elapsed sim.Duration
	events  uint64 // executed engine events
	// Failure run only: PGs whose acting set the mark-out changed, those
	// whose every object sits on its whole new acting set after the
	// backfill, the crash-to-backfill-end time and the client retries.
	movedPGs, backfilledPGs int
	recovery                sim.Duration
	retries                 uint64
}

// kiops is the run's completed-op rate over its virtual duration.
func (r fleetResult) kiops() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ops) / r.elapsed.Seconds() / 1e3
}

// fleetRun is the live state of one run.
type fleetRun struct {
	spec    fleetSpec
	eng     *sim.Engine
	cluster *rados.Cluster
	pool    *rados.Pool
	mon     *rados.Monitor
	names   []string // volume object names, interned once
	zipf    *sim.Zipf
	res     fleetResult
	retry   *rados.RetryPolicy // the clients' one policy on a failure run (nil otherwise)
	running int                // client slots still issuing or in flight

	// Failure run: the crash instant, the reweights and every PG's acting
	// set at that instant, and the recovery's progress.
	failedAt              sim.Time
	before                []uint32
	beforeSets            [][]int
	recovering, recovered bool
	err                   error
}

// fleetClient is one software client and its seeded op stream.
type fleetClient struct {
	cl     *rados.Client
	rng    *sim.RNG
	issued int
}

// fleetSlot is one queue-depth slot of a client: a closed loop that issues
// the client's next op when its previous one completes.
type fleetSlot struct {
	run     *fleetRun
	c       *fleetClient
	start   sim.Time
	tenant  int
	onWrite func(error)
	onRead  func([]byte, error)
}

// runFleet builds and runs one cell.
func runFleet(s fleetSpec) (fleetResult, error) {
	r, err := newFleetRun(s)
	if err != nil {
		return fleetResult{}, err
	}
	r.eng.Run()
	switch {
	case r.err != nil:
		return fleetResult{}, r.err
	case r.running != 0 || (s.failAt > 0 && !r.recovered):
		return fleetResult{}, fmt.Errorf("experiments: fleet run at %d OSDs drained with %d client slots running, recovered %t", s.osds, r.running, r.recovered)
	case r.eng.Pending() != 0:
		return fleetResult{}, fmt.Errorf("experiments: fleet run at %d OSDs left %d events pending", s.osds, r.eng.Pending())
	}
	r.res.events = r.eng.Executed()
	if r.retry != nil {
		r.res.retries = r.retry.Counters.Retries
	}
	return r.res, nil
}

// newFleetRun wires the cluster, seeds every volume and arms the clients,
// the monitor and, on a failure run, the crash.
func newFleetRun(s fleetSpec) (*fleetRun, error) {
	cm := core.DefaultCostModel()
	eng := sim.NewEngine()
	nodes := max(s.osds/fleetOSDsPerNode, 1)
	ccfg := rados.DefaultClusterConfig()
	ccfg.Nodes, ccfg.OSDsPerNode = nodes, fleetOSDsPerNode
	ccfg.NICBitsPerSec, ccfg.NodeStack = cm.NICBitsPerSec, cm.HostStack
	ccfg.NewStore = func() rados.ObjectStore { return rados.NewNullStore() }
	cluster, err := rados.NewCluster(eng, netsim.NewFabric(eng, cm.Propagation), ccfg)
	if err != nil {
		return nil, err
	}
	osds := len(cluster.OSDs)
	pool, err := cluster.CreateReplicatedPool("fleet", 3, uint32(osds*fleetPGsPerOSD))
	if err != nil {
		return nil, err
	}
	mon := rados.NewMonitor(cluster)
	mon.HeartbeatEvery, mon.Grace = fleetHeartbeat, fleetGrace
	r := &fleetRun{spec: s, eng: eng, cluster: cluster, pool: pool, mon: mon}
	r.res = fleetResult{osds: osds, nodes: nodes, clients: nodes * fleetClientsPerNode,
		volumes: osds * fleetVolumesPerOSD, lat: metrics.NewHistogram()}

	// Every volume's object exists in full from the start, as a
	// provisioned image's do: seed each replica's store directly.
	full := rados.Zeros(fleetVolumeBytes)
	r.names = make([]string, r.res.volumes)
	for v := range r.names {
		r.names[v] = "vol" + strconv.Itoa(v)
		acting, err := cluster.ActingSet(pool, cluster.PGOf(pool, r.names[v]))
		if err != nil {
			return nil, err
		}
		for _, o := range acting {
			cluster.OSDs[o].Store.Write(r.names[v], 0, full)
		}
	}

	if s.tenants > 0 {
		r.res.tenants = metrics.NewTenantSet()
		r.zipf = sim.NewZipf(int64(s.tenants), s.theta)
	}
	if s.failAt > 0 {
		// The default policy without deadlines: a crash fails the ops it
		// catches, so nothing waits on a lost message.
		rc := core.DefaultResilienceConfig().RetryConfig
		rc.Deadline, rc.Seed = 0, s.seed
		r.retry = rados.NewRetryPolicy(eng, rc)
	}
	for i := 0; i < r.res.clients; i++ {
		cl, err := rados.NewClient(cluster, "client"+strconv.Itoa(i), cm.NICBitsPerSec, cm.HostStack)
		if err != nil {
			return nil, err
		}
		cl.PlacementCost, cl.Functional, cl.Retry = cm.SWPlacement, false, r.retry
		c := &fleetClient{cl: cl, rng: sim.NewRNG(s.seed ^ uint64(i+1)*0xbf58476d1ce4e5b9)}
		slots := make([]fleetSlot, s.qd)
		for k := range slots {
			sl := &slots[k]
			*sl = fleetSlot{run: r, c: c, onWrite: sl.done}
			sl.onRead = func(_ []byte, err error) { sl.done(err) }
		}
		r.running += s.qd
		// Clients start within 10 µs of each other, not in lockstep.
		eng.Schedule(sim.Duration(c.rng.Intn(int(10*sim.Microsecond))), func() {
			for k := range slots {
				slots[k].next()
			}
		})
	}
	if s.failAt > 0 {
		failOSD := sim.NewRNG(s.seed ^ 0xfa11).Intn(osds)
		eng.Schedule(s.failAt, func() { r.fail(failOSD) })
		mon.Subscribe(r.markedOut)
	}
	mon.Start()
	return r, nil
}

// next issues the client's next op on this slot, or retires the slot once
// the client has issued all of its ops.
func (sl *fleetSlot) next() {
	r, c := sl.run, sl.c
	if c.issued == r.spec.opsPerClient {
		r.running--
		r.maybeStop()
		return
	}
	c.issued++
	name := r.names[c.rng.Intn(len(r.names))]
	off := c.rng.Intn(fleetVolumeBytes/fleetBlockBytes) * fleetBlockBytes
	read := c.rng.Intn(100) < fleetReadPct
	if r.zipf != nil {
		sl.tenant = 1 + int(r.zipf.Next(c.rng))
	}
	sl.start = r.eng.Now()
	opts := rados.ReqOpts{Random: true}
	if read {
		c.cl.ReadAsync(r.pool, name, off, fleetBlockBytes, opts, sl.onRead)
	} else {
		c.cl.WriteAsync(r.pool, name, off, rados.Zeros(fleetBlockBytes), opts, sl.onWrite)
	}
}

// done records one completed op and issues the slot's next.
func (sl *fleetSlot) done(err error) {
	r := sl.run
	now := r.eng.Now()
	r.res.lat.Record(now.Sub(sl.start))
	if r.res.tenants != nil {
		r.res.tenants.Record(sl.tenant, now.Sub(sl.start))
	}
	r.res.ops++
	if err != nil {
		r.res.failed++
	}
	r.res.elapsed = sim.Duration(now)
	sl.next()
}

// maybeStop stops the monitor once the clients are done and, on a failure
// run, the backfill has ended, so the engine drains.
func (r *fleetRun) maybeStop() {
	if r.running == 0 && (r.spec.failAt == 0 || r.recovered) {
		r.mon.Stop()
	}
}

// fail crashes osd, recording the placement it leaves behind. Every
// placement succeeded at setup, so none fails here.
func (r *fleetRun) fail(osd int) {
	r.failedAt = r.eng.Now()
	r.before = r.mon.Reweights()
	r.beforeSets = make([][]int, r.pool.PGs)
	for pg := range r.beforeSets {
		r.beforeSets[pg], _ = r.cluster.ActingSet(r.pool, uint32(pg))
	}
	r.cluster.OSDs[osd].SetUp(false)
}

// markedOut starts the backfill at the first map change after the crash:
// the mark-out epoch.
func (r *fleetRun) markedOut() {
	if !r.recovering {
		r.recovering = true
		rados.NewBackfiller(r.cluster).BackfillPool(r.pool, r.before, r.mon.Reweights(), r.backfilled)
	}
}

// backfilled ends the recovery. It counts the PGs the mark-out moved, and
// those of them whose every object sits whole on each member of the PG's
// new acting set.
func (r *fleetRun) backfilled(_ rados.BackfillReport, err error) {
	r.recovered, r.err = true, err
	r.res.recovery = r.eng.Now().Sub(r.failedAt)
	c, pool := r.cluster, r.pool
	incomplete := make([]bool, pool.PGs)
	for _, name := range r.names {
		pg := c.PGOf(pool, name)
		after, _ := c.ActingSet(pool, pg)
		for _, o := range after {
			incomplete[pg] = incomplete[pg] || c.OSDs[o].Store.Size(name) < fleetVolumeBytes
		}
	}
	for pg, before := range r.beforeSets {
		after, _ := c.ActingSet(pool, uint32(pg))
		if slices.ContainsFunc(after, func(o int) bool { return !slices.Contains(before, o) }) {
			r.res.movedPGs++
			if !incomplete[pg] {
				r.res.backfilledPGs++
			}
		}
	}
	r.maybeStop()
}
