package rados

import (
	"fmt"
	"hash/fnv"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// This file is the city-scale cluster model: thousands of OSDs and hundreds
// of thousands of volumes, simulated on a sharded engine. It trades the
// full-fidelity object path of Cluster (stores, scrub, monitor quorum) for a
// rack-granular model cheap enough to run 5,000+ OSDs: racks are topology
// domains pinned to shards, placement is a precomputed PG→OSD table, and
// every cross-rack interaction travels through the sharded network layer so
// a (seed, topology) pair replays bit-identically at any shard count.

// ScaleConfig shapes one city-scale run.
type ScaleConfig struct {
	// Topology.
	Racks          int
	OSDsPerRack    int
	ClientsPerRack int
	// Volumes is the number of addressable virtual disks; BlocksPerVolume
	// the number of distinct blocks each exposes to the workload.
	Volumes         int
	BlocksPerVolume int
	// PGs is the placement-group count; Replicas the copy count.
	PGs      int
	Replicas int

	// Workload: each client keeps QueueDepth ops in flight until it has
	// issued OpsPerClient; ReadPct of them are reads of BlockBytes.
	QueueDepth   int
	OpsPerClient int
	ReadPct      int
	BlockBytes   int

	// Tenants attributes every op to a tenant in 1..Tenants and records
	// latency per tenant, each in a metrics.Histogram at 4-bit precision.
	// 0 disables tenancy entirely: no extra random draws, so the event
	// stream and digest are identical to a pre-tenancy run.
	Tenants int
	// TenantTheta Zipf-skews the per-op tenant draw (0 = uniform).
	TenantTheta float64

	// OSD service model: mean per-op service time, a per-KiB data cost, and
	// a relative jitter fraction (0 = deterministic service).
	ServiceMean   sim.Duration
	ServicePerKiB sim.Duration
	JitterFrac    float64

	// Net is the sharded network shape; Net.Lookahead() bounds the group.
	Net netsim.ShardNetConfig

	// Failure scenario: FailOSD (global id; -1 = healthy run) drops at
	// FailAfter; BackfillObjects of BackfillBytes each are re-replicated per
	// degraded PG to a deterministic replacement OSD.
	FailOSD         int
	FailAfter       sim.Duration
	BackfillObjects int
	BackfillBytes   int

	// Seed drives placement and every per-rack random stream.
	Seed uint64
	// Shards is the engine shard count (<=1 = one shard).
	Shards int
}

// DefaultScaleConfig returns a balanced scenario for about the given OSD
// count: 16-OSD racks, 4 clients per rack, 3-way replication, a healthy
// queue-depth-4 4 kB mixed workload, and no failure.
func DefaultScaleConfig(osds int) ScaleConfig {
	racks := osds / 16
	if racks < 1 {
		racks = 1
	}
	return ScaleConfig{
		Racks:           racks,
		OSDsPerRack:     16,
		ClientsPerRack:  4,
		Volumes:         1000 * racks,
		BlocksPerVolume: 1024,
		PGs:             racks * 16 * 8,
		Replicas:        3,
		QueueDepth:      4,
		OpsPerClient:    400,
		ReadPct:         70,
		BlockBytes:      4096,
		ServiceMean:     20 * sim.Microsecond,
		ServicePerKiB:   200 * sim.Nanosecond,
		JitterFrac:      0.1,
		Net: netsim.ShardNetConfig{
			BitsPerSec: 25e9,
			Stack:      netsim.StackCost{PerMessage: 2 * sim.Microsecond, PerKiB: 60 * sim.Nanosecond},
			IntraLat:   5 * sim.Microsecond,
			InterLat:   10 * sim.Microsecond,
		},
		FailOSD:         -1,
		BackfillObjects: 8,
		BackfillBytes:   1 << 20,
		Seed:            1,
		Shards:          1,
	}
}

// Validate reports configuration errors.
func (c ScaleConfig) Validate() error {
	if c.Racks < 1 || c.OSDsPerRack < 1 || c.ClientsPerRack < 0 {
		return fmt.Errorf("rados: scale topology %d racks x %d OSDs x %d clients", c.Racks, c.OSDsPerRack, c.ClientsPerRack)
	}
	if c.Replicas < 1 || c.Replicas > c.Racks {
		return fmt.Errorf("rados: scale replicas %d must be in [1, racks=%d]", c.Replicas, c.Racks)
	}
	if c.PGs < 1 || c.Volumes < 1 || c.BlocksPerVolume < 1 {
		return fmt.Errorf("rados: scale PGs/volumes/blocks %d/%d/%d", c.PGs, c.Volumes, c.BlocksPerVolume)
	}
	if c.FailOSD >= c.Racks*c.OSDsPerRack {
		return fmt.Errorf("rados: FailOSD %d out of range", c.FailOSD)
	}
	if c.FailOSD >= 0 && c.Replicas < 2 {
		return fmt.Errorf("rados: failure scenario needs Replicas >= 2, got %d", c.Replicas)
	}
	if c.Tenants < 0 {
		return fmt.Errorf("rados: tenants %d", c.Tenants)
	}
	return c.Net.Validate()
}

// ScaleCluster is one wired city-scale deployment.
type ScaleCluster struct {
	cfg   ScaleConfig
	sh    *sim.Shards
	net   *netsim.ShardNet
	racks []*scaleRack
	// pgMap[pg] lists Replicas OSD ids in distinct racks; acting order is
	// primary first.
	pgMap [][]int32
	// degraded lists PGs containing FailOSD; replacement[i] is the OSD that
	// backfills degraded[i].
	degraded    []int32
	replacement []int32
	failAt      sim.Time
}

type scaleRack struct {
	c    *ScaleCluster
	id   int
	dom  sim.DomainID
	eng  *sim.Engine
	rng  *sim.RNG // service-time stream, drawn in (deterministic) event order
	osds []scaleOSD
	cls  []scaleClient

	// Metrics, owned by this rack's shard; merged in rack order afterwards.
	lat *metrics.Histogram
	// tenants is the per-tenant latency set (nil when tenancy is off) and
	// tenantZipf the shared skew generator for this rack's clients.
	tenants      *metrics.TenantSet
	tenantZipf   *sim.Zipf
	opsDone      uint64
	bytesMoved   uint64
	redirects    uint64
	lastDone     sim.Time
	pgsRecovered int
	lastRecover  sim.Time
}

type scaleOSD struct {
	nextFree sim.Time
	busy     sim.Duration
	served   uint64
	down     bool
}

type scaleClient struct {
	rng      *sim.RNG
	issued   int
	inflight int
}

// scaleOp is one in-flight client operation. It is allocated on the client's
// rack and mutated only there (issue/complete) and on the primary's rack
// (ack counting) — never concurrently, because each phase runs as an event
// on the owning shard.
type scaleOp struct {
	srcRack int
	client  int
	issued  sim.Time
	read    bool
	pg      int32
	tenant  int // owning tenant (0 when tenancy is off)
	acks    int
}

// NewScaleCluster wires a deployment: one domain per rack (round-robin over
// shards), precomputed placement, and per-rack seeded streams.
func NewScaleCluster(cfg ScaleConfig) (*ScaleCluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	sh := sim.NewShards(cfg.Shards, cfg.Net.Lookahead())
	net, err := netsim.NewShardNet(sh, cfg.Net)
	if err != nil {
		return nil, err
	}
	c := &ScaleCluster{cfg: cfg, sh: sh, net: net, failAt: sim.Time(cfg.FailAfter)}

	for r := 0; r < cfg.Racks; r++ {
		dom := net.AddDomain(fmt.Sprintf("rack%d", r))
		rk := &scaleRack{
			c:    c,
			id:   r,
			dom:  dom,
			eng:  sh.Engine(dom),
			rng:  sim.NewRNG(cfg.Seed ^ (uint64(r)+1)*0x9e3779b97f4a7c15),
			osds: make([]scaleOSD, cfg.OSDsPerRack),
			cls:  make([]scaleClient, cfg.ClientsPerRack),
			lat:  metrics.NewHistogram(),
		}
		if cfg.Tenants > 0 {
			rk.tenants = metrics.NewTenantSet()
			if cfg.TenantTheta > 0 && cfg.Tenants > 1 {
				rk.tenantZipf = sim.NewZipf(int64(cfg.Tenants), cfg.TenantTheta)
			}
		}
		for ci := range rk.cls {
			rk.cls[ci].rng = sim.NewRNG(cfg.Seed ^ uint64(r*cfg.ClientsPerRack+ci+1)*0xbf58476d1ce4e5b9)
		}
		// Topology hint: ~4 events per in-flight op per client, plus a
		// backfill/network floor, so city-scale runs never grow the heap or
		// freelist on the hot path.
		rk.eng.Reserve(cfg.ClientsPerRack*cfg.QueueDepth*8 + 1024)
		c.racks = append(c.racks, rk)
	}
	c.place()
	c.planFailure()
	// Arm the workload and the failure events (single-threaded setup).
	for _, rk := range c.racks {
		rk := rk
		for ci := range rk.cls {
			ci := ci
			stagger := sim.Duration(rk.cls[ci].rng.Intn(int(10 * sim.Microsecond)))
			rk.eng.Schedule(stagger, func() { rk.pump(ci) })
		}
	}
	if cfg.FailOSD >= 0 {
		frack := c.racks[cfg.FailOSD/cfg.OSDsPerRack]
		local := cfg.FailOSD % cfg.OSDsPerRack
		frack.eng.At(c.failAt, func() { frack.osds[local].down = true })
		c.armBackfill()
	}
	return c, nil
}

// place fills pgMap: Replicas OSDs in distinct racks per PG, from the seeded
// placement stream.
func (c *ScaleCluster) place() {
	rng := sim.NewRNG(c.cfg.Seed * 0x2545f4914f6cdd1d)
	c.pgMap = make([][]int32, c.cfg.PGs)
	for pg := range c.pgMap {
		set := make([]int32, 0, c.cfg.Replicas)
		used := make(map[int]bool, c.cfg.Replicas)
		for len(set) < c.cfg.Replicas {
			r := rng.Intn(c.cfg.Racks)
			if used[r] {
				continue
			}
			used[r] = true
			osd := int32(r*c.cfg.OSDsPerRack + rng.Intn(c.cfg.OSDsPerRack))
			set = append(set, osd)
		}
		c.pgMap[pg] = set
	}
}

// planFailure precomputes the degraded PG list and a deterministic
// replacement OSD per degraded PG (an OSD in a rack outside the PG's set).
func (c *ScaleCluster) planFailure() {
	if c.cfg.FailOSD < 0 {
		return
	}
	rng := sim.NewRNG(c.cfg.Seed*0x9e3779b97f4a7c15 + 0xfa11)
	fail := int32(c.cfg.FailOSD)
	for pg, set := range c.pgMap {
		hit := false
		inRacks := make(map[int]bool, len(set))
		for _, o := range set {
			if o == fail {
				hit = true
			}
			inRacks[int(o)/c.cfg.OSDsPerRack] = true
		}
		if !hit {
			continue
		}
		// Pick a replacement outside the PG's racks (there is one: Replicas
		// may equal Racks only when every rack is in the set, in which case
		// fall back to any OSD != fail in the failed OSD's rack).
		var repl int32
		if len(inRacks) < c.cfg.Racks {
			for {
				r := rng.Intn(c.cfg.Racks)
				if inRacks[r] {
					continue
				}
				repl = int32(r*c.cfg.OSDsPerRack + rng.Intn(c.cfg.OSDsPerRack))
				break
			}
		} else {
			repl = fail
			for repl == fail {
				repl = int32(int(fail)/c.cfg.OSDsPerRack*c.cfg.OSDsPerRack + rng.Intn(c.cfg.OSDsPerRack))
			}
		}
		c.degraded = append(c.degraded, int32(pg))
		c.replacement = append(c.replacement, repl)
	}
}

// rackOf maps a global OSD id to its rack index.
func (c *ScaleCluster) rackOf(osd int32) int { return int(osd) / c.cfg.OSDsPerRack }

// failed reports whether osd is the failed device and t is past the failure.
func (c *ScaleCluster) failed(osd int32, t sim.Time) bool {
	return c.cfg.FailOSD >= 0 && osd == int32(c.cfg.FailOSD) && t >= c.failAt
}

// acting returns the acting set of pg at time t: the placement order with a
// failed primary demoted (map knowledge is modelled as instantaneous, the
// same simplification the recovery experiment family uses).
func (c *ScaleCluster) acting(pg int32, t sim.Time) []int32 {
	set := c.pgMap[pg]
	if !c.failed(set[0], t) {
		return set
	}
	return set[1:]
}

// mix64 is splitmix64's finalizer: the volume/block → PG hash.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pump tops client ci up to its queue depth.
func (rk *scaleRack) pump(ci int) {
	cl := &rk.cls[ci]
	for cl.inflight < rk.c.cfg.QueueDepth && cl.issued < rk.c.cfg.OpsPerClient {
		cl.issued++
		cl.inflight++
		rk.issue(ci)
	}
}

// issue sends one op at the current virtual time.
func (rk *scaleRack) issue(ci int) {
	c := rk.c
	cl := &rk.cls[ci]
	vol := cl.rng.Intn(c.cfg.Volumes)
	blk := cl.rng.Intn(c.cfg.BlocksPerVolume)
	pg := int32(mix64(uint64(vol)<<24|uint64(blk)) % uint64(c.cfg.PGs))
	read := cl.rng.Intn(100) < c.cfg.ReadPct
	op := &scaleOp{srcRack: rk.id, client: ci, issued: rk.eng.Now(), read: read, pg: pg}
	// The tenant draw is strictly gated on tenancy so an untenanted config
	// consumes the exact pre-tenancy random stream (digest compatibility).
	if c.cfg.Tenants > 0 {
		if rk.tenantZipf != nil {
			op.tenant = 1 + int(rk.tenantZipf.Next(cl.rng))
		} else {
			op.tenant = 1 + cl.rng.Intn(c.cfg.Tenants)
		}
	}
	rk.send(op)
}

// send routes op to its primary (re-evaluating the acting set at the current
// time, so redirected retries pick the surviving primary).
func (rk *scaleRack) send(op *scaleOp) {
	c := rk.c
	primary := c.acting(op.pg, rk.eng.Now())[0]
	prack := c.racks[c.rackOf(primary)]
	req := HdrBytes
	if !op.read {
		req = c.cfg.BlockBytes + HdrBytes
	}
	c.net.Send(rk.dom, prack.dom, req, func() { prack.serve(op, primary) })
}

// serviceTime draws one OSD service time on the rack's stream.
func (rk *scaleRack) serviceTime(bytes int) sim.Duration {
	c := rk.c
	base := c.cfg.ServiceMean + sim.Duration(int64(c.cfg.ServicePerKiB)*int64(bytes)/1024)
	if c.cfg.JitterFrac <= 0 {
		return base
	}
	return rk.rng.NormDuration(base, sim.Duration(float64(base)*c.cfg.JitterFrac))
}

// reserveOSD books FIFO service on a local OSD and returns the completion
// time.
func (rk *scaleRack) reserveOSD(local int, bytes int) sim.Time {
	osd := &rk.osds[local]
	start := rk.eng.Now()
	if osd.nextFree > start {
		start = osd.nextFree
	}
	svc := rk.serviceTime(bytes)
	osd.nextFree = start.Add(svc)
	osd.busy += svc
	osd.served++
	return osd.nextFree
}

// serve runs on the primary's rack: service the op, fan out replica writes,
// or bounce a request that raced the failure to a dead primary.
func (rk *scaleRack) serve(op *scaleOp, primary int32) {
	c := rk.c
	local := int(primary) % c.cfg.OSDsPerRack
	if rk.osds[local].down {
		// The op was issued before the failure and arrived after: redirect.
		// The client re-resolves the acting set at re-issue time.
		src := c.racks[op.srcRack]
		c.net.Send(rk.dom, src.dom, HdrBytes, func() {
			src.redirects++
			src.send(op)
		})
		return
	}
	bytes := c.cfg.BlockBytes
	done := rk.reserveOSD(local, bytes)
	if op.read {
		rk.eng.At(done, func() { rk.reply(op, bytes+HdrBytes) })
		return
	}
	acting := c.acting(op.pg, rk.eng.Now())
	op.acks = len(acting) - 1
	if op.acks == 0 {
		rk.eng.At(done, func() { rk.reply(op, HdrBytes) })
		return
	}
	rk.eng.At(done, func() {
		for _, replica := range acting[1:] {
			replica := replica
			rrack := c.racks[c.rackOf(replica)]
			c.net.Send(rk.dom, rrack.dom, bytes+HdrBytes, func() {
				rrack.replicaWrite(op, replica, rk)
			})
		}
	})
}

// replicaWrite runs on a replica's rack: service the copy and ack the
// primary. A replica that died after issue acks immediately — the write
// proceeds degraded, matching primary-copy semantics under a down map.
func (rk *scaleRack) replicaWrite(op *scaleOp, replica int32, prack *scaleRack) {
	c := rk.c
	local := int(replica) % c.cfg.OSDsPerRack
	ackAt := rk.eng.Now()
	if !rk.osds[local].down {
		ackAt = rk.reserveOSD(local, c.cfg.BlockBytes)
	}
	rk.eng.At(ackAt, func() {
		c.net.Send(rk.dom, prack.dom, HdrBytes, func() { prack.ack(op) })
	})
}

// ack runs on the primary's rack; the last ack releases the client reply.
func (rk *scaleRack) ack(op *scaleOp) {
	op.acks--
	if op.acks == 0 {
		rk.reply(op, HdrBytes)
	}
}

// reply completes op back on the client's rack.
func (rk *scaleRack) reply(op *scaleOp, bytes int) {
	c := rk.c
	src := c.racks[op.srcRack]
	c.net.Send(rk.dom, src.dom, bytes, func() {
		now := src.eng.Now()
		src.lat.Record(now.Sub(op.issued))
		if src.tenants != nil {
			src.tenants.Record(op.tenant, now.Sub(op.issued))
		}
		src.opsDone++
		src.bytesMoved += uint64(c.cfg.BlockBytes)
		if now > src.lastDone {
			src.lastDone = now
		}
		src.cls[op.client].inflight--
		src.pump(op.client)
	})
}

// armBackfill schedules the re-replication streams: for each degraded PG,
// the first surviving replica pushes BackfillObjects to the replacement OSD,
// competing with client traffic for OSD service and rack uplinks. The
// replacement's rack records the PG-recovered instant.
func (c *ScaleCluster) armBackfill() {
	for i, pg := range c.degraded {
		set := c.pgMap[pg]
		var source int32 = -1
		for _, o := range set {
			if o != int32(c.cfg.FailOSD) {
				source = o
				break
			}
		}
		if source < 0 {
			continue // single-replica PG on the failed OSD: nothing to copy from
		}
		repl := c.replacement[i]
		srack := c.racks[c.rackOf(source)]
		c.pushObjects(srack, source, repl, 0)
	}
}

// pushObjects streams object k of a degraded PG from source to repl; the
// first call is armed at setup for the detection instant, later calls chain
// off the previous object's ack.
func (c *ScaleCluster) pushObjects(srack *scaleRack, source, repl int32, k int) {
	detect := c.failAt.Add(2 * c.cfg.Net.InterLat)
	step := func() {
		done := srack.reserveOSD(int(source)%c.cfg.OSDsPerRack, c.cfg.BackfillBytes)
		rrack := c.racks[c.rackOf(repl)]
		srack.eng.At(done, func() {
			c.net.Send(srack.dom, rrack.dom, c.cfg.BackfillBytes+HdrBytes, func() {
				wdone := rrack.reserveOSD(int(repl)%c.cfg.OSDsPerRack, c.cfg.BackfillBytes)
				rrack.eng.At(wdone, func() {
					if k+1 < c.cfg.BackfillObjects {
						// Pull the next object: ack travels back to the
						// source, which pushes the next one.
						c.net.Send(rrack.dom, srack.dom, HdrBytes, func() {
							c.pushObjects(srack, source, repl, k+1)
						})
						return
					}
					rrack.pgsRecovered++
					if now := rrack.eng.Now(); now > rrack.lastRecover {
						rrack.lastRecover = now
					}
				})
			})
		})
	}
	if k == 0 && srack.eng.Now() < detect {
		srack.eng.At(detect, step)
		return
	}
	step()
}

// ScaleResult aggregates a run in canonical rack order.
type ScaleResult struct {
	OSDs, Racks, Clients, Volumes, Shards int

	TotalOps   uint64
	TotalBytes uint64
	Redirects  uint64
	Elapsed    sim.Duration // virtual time of the last client completion
	KIOPS      float64
	Lat        *metrics.Histogram

	// Per-tenant latency (nil when the config ran untenanted) and Jain's
	// fairness index over per-tenant achieved service rates.
	Tenants  *metrics.TenantSet
	Fairness float64

	// Recovery (failure scenarios only).
	DegradedPGs  int
	RecoveredPGs int
	RecoveryTime sim.Duration // failure instant → last PG recovered

	// Engine-side stats.
	PerShard []sim.ShardStats
	Windows  uint64
	Messages uint64
}

// Run drives the group to completion and aggregates per-rack state in rack
// order (the same enumeration-order discipline the experiment runner uses).
func (c *ScaleCluster) Run() *ScaleResult {
	c.sh.Run()
	cfg := c.cfg
	res := &ScaleResult{
		OSDs:        cfg.Racks * cfg.OSDsPerRack,
		Racks:       cfg.Racks,
		Clients:     cfg.Racks * cfg.ClientsPerRack,
		Volumes:     cfg.Volumes,
		Shards:      cfg.Shards,
		Lat:         metrics.NewHistogram(),
		DegradedPGs: len(c.degraded),
		PerShard:    c.sh.Stats(),
		Windows:     c.sh.Windows(),
		Messages:    c.sh.Posted(),
	}
	if cfg.Tenants > 0 {
		res.Tenants = metrics.NewTenantSet()
	}
	var lastRecover sim.Time
	for _, rk := range c.racks {
		res.TotalOps += rk.opsDone
		res.TotalBytes += rk.bytesMoved
		res.Redirects += rk.redirects
		res.Lat.Merge(rk.lat)
		if res.Tenants != nil {
			res.Tenants.Merge(rk.tenants)
		}
		if rk.lastDone > sim.Time(res.Elapsed) {
			res.Elapsed = sim.Duration(rk.lastDone)
		}
		res.RecoveredPGs += rk.pgsRecovered
		if rk.lastRecover > lastRecover {
			lastRecover = rk.lastRecover
		}
	}
	if res.Elapsed > 0 {
		res.KIOPS = float64(res.TotalOps) / sim.Duration(res.Elapsed).Seconds() / 1e3
	}
	if cfg.FailOSD >= 0 && lastRecover > 0 {
		res.RecoveryTime = lastRecover.Sub(c.failAt)
	}
	if res.Tenants != nil {
		var xs []float64
		for _, id := range res.Tenants.Tenants() {
			if m := res.Tenants.Hist(id).Mean(); m > 0 {
				xs = append(xs, 1/float64(m))
			}
		}
		res.Fairness = metrics.Fairness(xs)
	}
	return res
}

// Digest folds the result's exact observables (per-op counts, latency sums
// and percentiles, recovery instants) into an FNV-1a hash. Two runs of the
// same (seed, topology) must digest identically at any shard count.
func (r *ScaleResult) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
		r.OSDs, r.Racks, r.Volumes, r.TotalOps, r.TotalBytes, r.Redirects,
		int64(r.Elapsed), int64(r.Lat.Sum()), r.Lat.Count(),
		r.RecoveredPGs, int64(r.RecoveryTime))
	fmt.Fprintf(h, "%d|%d|%d|%d\n",
		int64(r.Lat.Percentile(50)), int64(r.Lat.Percentile(99)),
		int64(r.Lat.Min()), int64(r.Lat.Max()))
	// Tenanted runs fold every tenant's exact observables in as well; the
	// guard keeps untenanted digests bit-identical to pre-tenancy seeds.
	if r.Tenants != nil {
		for _, s := range r.Tenants.Summaries() {
			fmt.Fprintf(h, "t%d|%d|%d|%d|%d\n",
				s.Tenant, s.Count, int64(s.Mean), int64(s.P99), int64(s.P999))
		}
	}
	return h.Sum64()
}
