package core

import (
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/fpga"
	"repro/internal/iouring"
	"repro/internal/lsvd"
	"repro/internal/netsim"
	"repro/internal/qdma"
	"repro/internal/rados"
	"repro/internal/raft"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uifd"
)

// This file is the imperative half of the stack pipeline: the five layer
// interfaces a stack composes (host API, block layer, transport, placement,
// fan-out), their implementations, and BuildStack, which wires a validated
// StackSpec into a running Stack. Every DeLiBA generation — and any valid
// hybrid — is one path through these constructors; none has a bespoke
// stack type anymore.
//
// Fidelity note: the builders preserve the exact construction order and
// event sequences of the old per-generation constructors (fabric host →
// shell → card backend → QDMA/UIFD → blk-mq → rings, fused daemon CPU
// charges, fused card pipeline reservations), because experiment digests
// are bit-exact regression oracles and event tie-breaking is
// creation-order sensitive.

// HostAPI is how block I/O enters the stack: DeLiBA-K's io_uring ring set
// or the DeLiBA-1/2 NBD daemon loop. tr is the per-I/O trace context
// (zero = unsampled) rooted by the stack before submission; tenant is the
// owning tenant (0 = untenanted) that rides the I/O down every layer.
type HostAPI interface {
	Submit(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, tr trace.Ref, done func(error))
	Close()
}

// BlockLayer is the kernel block layer between the host API and the
// transport (DMQ bypass, mq-deadline, or none for the user-space daemons).
type BlockLayer interface {
	Kind() BlockKind
	// MQ exposes the blk-mq instance; nil when the path has no kernel
	// block queue (host-only transport folds the DMQ/RBD residency into
	// the map cost; the NBD daemons bypass the kernel entirely).
	MQ() *blockmq.MQ
}

// Transport is the host↔card data path (QDMA queue sets, the legacy DMA
// engine, or nothing for host-only stacks).
type Transport interface {
	Kind() TransportKind
	// Driver exposes the UIFD driver on the QDMA path (nil otherwise).
	Driver() *uifd.Driver
}

// Placement computes CRUSH placement: an RTL or HLS kernel on the card, or
// the software client (which embeds it in its request cost).
type Placement interface {
	Kind() PlacementKind
	// Shell exposes the FPGA design hosting the kernels (nil for
	// software placement).
	Shell() *fpga.Shell
	// Select computes one of the pool's PG placements asynchronously on
	// the card, from the same CRUSH input Cluster.ActingSet selects on;
	// cont receives the post-selection kernel penalty to charge (the HLS
	// slowdown) and any error.
	Select(pool *rados.Pool, pg uint32, cont func(penalty sim.Duration, err error))
}

// FanoutLayer is the network path that carries replica/shard fan-out: the
// card NIC (RTL or HLS TCP/IP) or the host stack (raw Fanout for the D1
// daemon, the Ceph client for the software baselines).
type FanoutLayer interface {
	Kind() FanoutKind
	// Fan exposes the raw fan-out engine (nil on the client path).
	Fan() *Fanout
	// Client exposes the software Ceph client (nil on the card/host-NIC
	// paths).
	Client() *rados.Client
}

// --- host APIs -----------------------------------------------------------

// uringHost adapts the shared ringSet to the HostAPI boundary.
type uringHost struct{ rs *ringSet }

func (h *uringHost) Submit(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, tr trace.Ref, done func(error)) {
	h.rs.submit(op, pattern, off, n, cpu, tenant, tr, done)
}

func (h *uringHost) Close() { h.rs.close() }

// --- block layers --------------------------------------------------------

type dmqBlock struct {
	kind BlockKind
	mq   *blockmq.MQ
}

func (b *dmqBlock) Kind() BlockKind { return b.kind }
func (b *dmqBlock) MQ() *blockmq.MQ { return b.mq }

type noBlock struct{}

func (noBlock) Kind() BlockKind { return BlockNone }
func (noBlock) MQ() *blockmq.MQ { return nil }

// --- transports ----------------------------------------------------------

type qdmaTransport struct{ drv *uifd.Driver }

func (t *qdmaTransport) Kind() TransportKind  { return TransportQDMA }
func (t *qdmaTransport) Driver() *uifd.Driver { return t.drv }

type legacyDMA struct{}

func (legacyDMA) Kind() TransportKind  { return TransportLegacyDMA }
func (legacyDMA) Driver() *uifd.Driver { return nil }

type hostOnly struct{}

func (hostOnly) Kind() TransportKind  { return TransportHostOnly }
func (hostOnly) Driver() *uifd.Driver { return nil }

// --- placements ----------------------------------------------------------

// rtlPlacement is DeLiBA-K's straw2 kernel: full pipeline speed, no
// penalty beyond the kernel occupancy itself.
type rtlPlacement struct {
	shell *fpga.Shell
	free  []*placeSel
}

func (pl *rtlPlacement) Kind() PlacementKind { return PlacementRTL }
func (pl *rtlPlacement) Shell() *fpga.Shell  { return pl.shell }

func (pl *rtlPlacement) Select(pool *rados.Pool, pg uint32, cont func(sim.Duration, error)) {
	selectOnCard(&pl.free, pl.shell, pool, pg, 0, cont)
}

// placeSel is one placement in flight on the card's straw2 kernel. Selects
// are pooled on their placement layer with the kernel callback bound once.
type placeSel struct {
	free    *[]*placeSel
	penalty sim.Duration
	cont    func(sim.Duration, error)
	done    func([]int, error)
}

// selectOnCard runs one placement on the card and hands cont the given
// penalty once the kernel answers.
func selectOnCard(free *[]*placeSel, shell *fpga.Shell, pool *rados.Pool, pg uint32, penalty sim.Duration, cont func(sim.Duration, error)) {
	var s *placeSel
	if k := len(*free); k > 0 {
		s = (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
	} else {
		s = &placeSel{free: free}
		s.done = s.selected
	}
	s.penalty, s.cont = penalty, cont
	shell.Straw2.Select(pg, uint32(pool.ID), pool.Width(), s.done)
}

func (s *placeSel) selected(_ []int, err error) {
	penalty, cont := s.penalty, s.cont
	s.cont = nil
	*s.free = append(*s.free, s)
	cont(penalty, err)
}

// hlsPlacement is the DeLiBA-1/2 HLS kernel: the same selection with the
// HLS latency scale charged on top.
type hlsPlacement struct {
	shell *fpga.Shell
	scale float64
	free  []*placeSel
}

func (pl *hlsPlacement) Kind() PlacementKind { return PlacementHLS }
func (pl *hlsPlacement) Shell() *fpga.Shell  { return pl.shell }

func (pl *hlsPlacement) penalty(passes int) sim.Duration {
	if pl.scale <= 1 {
		return 0
	}
	return sim.Duration(float64(pl.shell.Straw2.Spec.PipelineLatency()) *
		(pl.scale - 1) * float64(passes))
}

func (pl *hlsPlacement) Select(pool *rados.Pool, pg uint32, cont func(sim.Duration, error)) {
	selectOnCard(&pl.free, pl.shell, pool, pg, pl.penalty(pool.Width()), cont)
}

// swPlacement marks placement as computed inside the software client (its
// request cost embeds SWPlacement); nothing runs on a card.
type swPlacement struct{}

func (swPlacement) Kind() PlacementKind { return PlacementSoftware }
func (swPlacement) Shell() *fpga.Shell  { return nil }
func (swPlacement) Select(_ *rados.Pool, _ uint32, cont func(sim.Duration, error)) {
	cont(0, nil)
}

// --- fan-out layers ------------------------------------------------------

// cardFanout is the card NIC's TCP/IP stack (RTL for DeLiBA-K, HLS for
// DeLiBA-2) driving the raw fan-out engine.
type cardFanout struct {
	kind FanoutKind
	fan  *Fanout
}

func (f *cardFanout) Kind() FanoutKind      { return f.kind }
func (f *cardFanout) Fan() *Fanout          { return f.fan }
func (f *cardFanout) Client() *rados.Client { return nil }

// hostFanout is DeLiBA-1's host-NIC fan-out.
type hostFanout struct{ fan *Fanout }

func (f *hostFanout) Kind() FanoutKind      { return FanoutHostTCP }
func (f *hostFanout) Fan() *Fanout          { return f.fan }
func (f *hostFanout) Client() *rados.Client { return nil }

// clientFanout is the software Ceph client (primary-copy protocol over the
// host NIC, software CRUSH inside).
type clientFanout struct{ client *rados.Client }

func (f *clientFanout) Kind() FanoutKind      { return FanoutHostTCP }
func (f *clientFanout) Fan() *Fanout          { return nil }
func (f *clientFanout) Client() *rados.Client { return f.client }

// --- the composed stack --------------------------------------------------

// pipelineStack is the one Stack implementation: five layers assembled by
// BuildStack.
type pipelineStack struct {
	tb    *Testbed
	spec  StackSpec
	image *rbd.Image
	pool  *rados.Pool

	host      HostAPI
	block     BlockLayer
	transport Transport
	placement Placement
	fanout    FanoutLayer

	// cache is the LSVD write-back tier (nil for cache-none specs).
	cache *lsvd.Cache
}

func (s *pipelineStack) Name() string { return s.spec.Name }

func (s *pipelineStack) Submit(op OpType, pattern Pattern, off int64, n int, cpu int, done func(error)) {
	s.SubmitTenant(op, pattern, off, n, cpu, 0, done)
}

// SubmitTenant is Submit for an I/O owned by a tenant: the identity rides
// the op through every layer (QoS scheduling, SR-IOV queue mapping,
// per-tenant trace exemplars). Tenant 0 is the untenanted default and
// leaves the event sequence identical to Submit.
func (s *pipelineStack) SubmitTenant(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, done func(error)) {
	// Root the per-I/O trace here: every op (sampled or not) advances the
	// deterministic submit sequence the sampling policy keys on.
	var tr trace.Ref
	if sink := s.tb.traceHost; sink != nil {
		name := "io-read"
		if op == Write {
			name = "io-write"
		}
		h := sink.Root(name)
		if h.On() {
			h.SetTenant(tenant)
			tr = h.Ref()
			inner := done
			done = func(err error) {
				h.End()
				inner(err)
			}
		}
	}
	s.host.Submit(op, pattern, off, n, cpu, tenant, tr, done)
}

func (s *pipelineStack) ImageBytes() int64 { return s.image.Size }

func (s *pipelineStack) Close() {
	s.host.Close()
	if s.cache != nil {
		s.cache.Close()
	}
}

// Cache exposes the LSVD write-back cache tier; nil for cache-none specs.
func (s *pipelineStack) Cache() *lsvd.Cache { return s.cache }

// Spec returns the composition this stack was built from.
func (s *pipelineStack) Spec() StackSpec { return s.spec }

// Shell exposes the FPGA design (for the DFX and power experiments); nil
// for software placement.
func (s *pipelineStack) Shell() *fpga.Shell { return s.placement.Shell() }

// MQ exposes the blk-mq instance (for ablation statistics); nil off the
// QDMA path.
func (s *pipelineStack) MQ() *blockmq.MQ { return s.block.MQ() }

// Driver exposes the UIFD driver; nil off the QDMA path.
func (s *pipelineStack) Driver() *uifd.Driver { return s.transport.Driver() }

// Rings exposes the io_uring instances; nil for NBD host APIs.
func (s *pipelineStack) Rings() []*iouring.Ring {
	if h, ok := s.host.(*uringHost); ok {
		return h.rs.rings
	}
	return nil
}

// --- BuildStack ----------------------------------------------------------

// BuildStack wires a StackSpec into a running stack over this testbed.
// All five paper generations and every valid hybrid come out of this one
// constructor; Validate decides what is buildable.
func (tb *Testbed) BuildStack(spec StackSpec) (Stack, error) {
	if spec.Name == "" {
		spec.Name = spec.canonicalName()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tb.Cfg.SplitDomains {
		if spec.Transport != TransportHostOnly || spec.Placement != PlacementSoftware {
			return nil, fmt.Errorf("core: split-domain testbed supports only host-only software-placement stacks; %q drives the card from the host domain", spec.Name)
		}
		if spec.EC {
			return nil, fmt.Errorf("core: erasure coding is not supported on the split-domain testbed")
		}
		if spec.Replication == ReplRaft {
			return nil, fmt.Errorf("core: repl-raft is not supported on the split-domain testbed (group state lives on the cluster shard; the router would drive it from the host domain)")
		}
	}
	pool, image := tb.poolAndImage(spec.EC)
	s := &pipelineStack{tb: tb, spec: spec, image: image, pool: pool}

	switch {
	case spec.Transport == TransportQDMA:
		if err := tb.buildURingCard(s); err != nil {
			return nil, err
		}
	case spec.Transport == TransportHostOnly && spec.HostAPI == HostIOUring:
		if err := tb.buildURingClient(s); err != nil {
			return nil, err
		}
	case spec.Transport == TransportHostOnly:
		if err := tb.buildNBDClient(s); err != nil {
			return nil, err
		}
	case spec.Fanout == FanoutHostTCP:
		if err := tb.buildNBDOffload(s); err != nil {
			return nil, err
		}
	default:
		if err := tb.buildNBDCard(s); err != nil {
			return nil, err
		}
	}
	if spec.Replication == ReplRaft {
		// Route the replicated pool through the per-PG Raft backend: the
		// fan-out engine and the software client both dispatch to a router
		// bound to the stack's own client endpoint.
		sys := tb.raftSystem()
		if fan := s.fanout.Fan(); fan != nil {
			r := raft.NewRouter(sys, fan.From)
			r.Sink = tb.traceHost
			fan.Raft = r
		}
		if cl := s.fanout.Client(); cl != nil {
			r := raft.NewRouter(sys, cl.Host)
			r.Sink = tb.traceHost
			cl.Repl = r
		}
	}
	return s, nil
}

// cardNIC returns the fabric host name and network stack profile for a
// card fan-out kind.
func (tb *Testbed) cardNIC(kind FanoutKind) (string, netsim.StackCost) {
	if kind == FanoutCardHLS {
		return "fpga-hls", tb.CM.HLSStack
	}
	return "fpga-cmac", tb.CM.RTLStack
}

// buildCardSide wires the layers living on the card — fabric host, FPGA
// shell with the placement kernels, fan-out engine, and the card backend —
// shared by the QDMA and legacy-DMA card shapes.
func (tb *Testbed) buildCardSide(s *pipelineStack) (*cardBackend, error) {
	hostName, stack := tb.cardNIC(s.spec.Fanout)
	cardHost, err := tb.Fabric.AddHost(hostName, tb.CM.NICBitsPerSec, stack)
	if err != nil {
		return nil, err
	}
	// HLS designs predate DFX: static shell, no swappable RMs.
	shell, err := buildShell(tb, s.pool, s.spec.Placement == PlacementHLS)
	if err != nil {
		return nil, err
	}
	if s.spec.Placement == PlacementHLS {
		s.placement = &hlsPlacement{shell: shell, scale: tb.CM.HLSLatencyScale}
	} else {
		s.placement = &rtlPlacement{shell: shell}
	}
	fan := &Fanout{Cluster: tb.Cluster, From: cardHost, Res: tb.Res, Trace: tb.traceHost}
	s.fanout = &cardFanout{kind: s.spec.Fanout, fan: fan}
	procCost := tb.CM.CardProcessing
	if s.spec.Fanout == FanoutCardHLS {
		procCost = tb.CM.HLSCardProcessing
	}
	kernelScale := 1.0
	if s.spec.Placement == PlacementHLS {
		kernelScale = tb.CM.HLSLatencyScale
	}
	return &cardBackend{
		eng:         tb.Eng,
		cm:          tb.CM,
		shell:       shell,
		place:       s.placement,
		fan:         fan,
		image:       s.image,
		pool:        s.pool,
		procCost:    procCost,
		kernelScale: kernelScale,
		trace:       tb.traceHost,
	}, nil
}

// uifdTenantVFs is the SR-IOV virtual-function pool every QDMA stack
// provisions for tenant-attributed traffic: thousands of tenants hash onto
// these functions' queue sets. Provisioning is pure QDMA state, so it is
// digest-invisible until a nonzero tenant actually submits.
const uifdTenantVFs = 8

// Per-tenant QoS scheduler defaults. The classes are deliberately uniform —
// the QoS axis measures isolation under equal entitlements, not a policy
// control plane. Token bucket: a byte-rate cap that clips a hog's backlog
// while leaving sparse victims untouched. dmclock: a modest guaranteed
// reservation per tenant plus a proportional share of slack, with a limit
// that stops one tenant from banking the whole device.
// The rates are sized against the simulated device: a healthy 4 KiB tenant
// bursts to roughly 10k unit/s, so the dmclock limit sits above that and
// binds only through the cost normalization — a 64 KiB hog op charges 16
// units (256 KiB charges 64), pulling the hog's effective op ceiling an
// order of magnitude or two below any victim's while leaving 4 KiB traffic
// untouched. Two effects bound how hard the limit can squeeze: below a
// victim's burst rate the victims throttle themselves (their own p99
// inflates), and no dispatch limit can preempt a large frame already
// serializing on the 10 GbE wire, so victim tails retain one in-flight
// hog-frame of head-of-line wait regardless of rate.
const (
	qosSchedCost  = 500 * sim.Nanosecond
	qosTBRate     = 512 << 20 // bytes/second per tenant
	qosTBBurst    = 1 << 20
	qosDMCResIOPS = 2000
	qosDMCLimIOPS = 20000
	qosDMCWeight  = 1.0
	// qosDMCCostBlock normalizes the dmclock IOPS terms by request size
	// (a 256 KiB op costs 64 units), so large-block hogs cannot sidestep
	// the limit.
	qosDMCCostBlock = 4096
	qosInsertCost   = 600 * sim.Nanosecond
)

// buildURingCard wires the full hardware pipeline: io_uring → DMQ → UIFD/
// QDMA → card kernels → card NIC fan-out (DeLiBA-K's shape).
func (tb *Testbed) buildURingCard(s *pipelineStack) error {
	backend, err := tb.buildCardSide(s)
	if err != nil {
		return err
	}
	qe := qdma.New(tb.Eng, qdma.DefaultConfig())
	queueKind := qdma.ReplicationQueue
	if s.spec.EC {
		queueKind = qdma.ErasureQueue
	}
	drv, err := uifd.NewDriver(tb.Eng, qe, backend, uifd.Config{
		HWQueues: s.spec.ringInstances(),
		Queue:    queueKind,
		VFs:      uifdTenantVFs,
	})
	if err != nil {
		return err
	}
	s.transport = &qdmaTransport{drv: drv}
	mqCfg := blockmq.Config{
		CPUs:      s.spec.ringInstances(),
		HWQueues:  s.spec.ringInstances(),
		TagsPerHW: 64,
		Bypass:    true, // the DeLiBA-K DMQ scheduler bypass
	}
	if s.spec.Block == BlockMQDeadline {
		mqCfg.Bypass = false
		mqCfg.Scheduler = blockmq.NewDeadlineScheduler(tb.Eng,
			1500*sim.Nanosecond, 5*sim.Millisecond)
		mqCfg.InsertCost = 600 * sim.Nanosecond
	}
	switch s.spec.QoS {
	case QoSTokenBucket:
		mqCfg.Bypass = false
		mqCfg.InsertCost = qosInsertCost
		sched := blockmq.NewTokenBucketScheduler(tb.Eng,
			qosSchedCost, qosTBRate, qosTBBurst)
		mqCfg.Scheduler = sched
		tb.QoSSched = sched
	case QoSDMClock:
		mqCfg.Bypass = false
		mqCfg.InsertCost = qosInsertCost
		sched := blockmq.NewDMClockScheduler(tb.Eng,
			qosSchedCost, blockmq.DMClockParams{
				ReservationIOPS: qosDMCResIOPS,
				LimitIOPS:       qosDMCLimIOPS,
				Weight:          qosDMCWeight,
				CostBlock:       qosDMCCostBlock,
			})
		mqCfg.Scheduler = sched
		tb.QoSSched = sched
	}
	mq, err := blockmq.New(tb.Eng, mqCfg, drv)
	if err != nil {
		return err
	}
	s.block = &dmqBlock{kind: s.spec.Block, mq: mq}
	mq.SetTraceSink(tb.traceHost)
	var target iouring.Target = &dmqTarget{eng: tb.Eng, mq: mq, mapCost: tb.CM.DKRBDMapCost,
		writeExtra: tb.CM.CardWriteOverhead, trace: tb.traceHost,
		bare: s.spec.Cache == CacheLSVD}
	if s.spec.Cache == CacheLSVD {
		target, err = tb.buildCacheTarget(s, target)
		if err != nil {
			return err
		}
	}
	rs, err := newRingSet(tb, s.spec, target)
	if err != nil {
		return err
	}
	s.host = &uringHost{rs: rs}
	return nil
}

// buildURingClient wires io_uring + kernel DMQ/RBD onto the software Ceph
// client (the DeLiBA-K software baseline). The DMQ/RBD kernel residency is
// folded into the ring target's map cost; there is no separate blk-mq
// instance to expose.
func (tb *Testbed) buildURingClient(s *pipelineStack) error {
	client, err := newSWClient(tb, "client-dksw")
	if err != nil {
		return err
	}
	s.block = &dmqBlock{kind: s.spec.Block}
	s.transport = hostOnly{}
	s.placement = swPlacement{}
	s.fanout = &clientFanout{client: client}
	var target iouring.Target = &radosTarget{tb: tb, client: client, image: s.image, pool: s.pool,
		mapCost: tb.CM.DKRBDMapCost, trace: tb.traceHost,
		bare: s.spec.Cache == CacheLSVD}
	if s.spec.Cache == CacheLSVD {
		target, err = tb.buildCacheTarget(s, target)
		if err != nil {
			return err
		}
	}
	rs, err := newRingSet(tb, s.spec, target)
	if err != nil {
		return err
	}
	s.host = &uringHost{rs: rs}
	return nil
}

// buildNBDCard wires the NBD daemon onto the card over legacy DMA
// (DeLiBA-2's shape).
func (tb *Testbed) buildNBDCard(s *pipelineStack) error {
	backend, err := tb.buildCardSide(s)
	if err != nil {
		return err
	}
	s.block = noBlock{}
	s.transport = legacyDMA{}
	s.host = &nbdHost{
		tb:      tb,
		profile: tb.CM.D2Host,
		daemon:  tb.Eng.NewResource(1),
		path:    &legacyCardPath{cm: tb.CM, backend: backend},
	}
	return nil
}

// buildNBDOffload wires the NBD daemon with card placement offload but
// host-side fan-out (DeLiBA-1's shape).
func (tb *Testbed) buildNBDOffload(s *pipelineStack) error {
	hostNIC, err := tb.Fabric.AddHost("client-d1", tb.CM.NICBitsPerSec, tb.CM.D1NetStack)
	if err != nil {
		return err
	}
	shell, err := buildShell(tb, s.pool, s.spec.Placement == PlacementHLS)
	if err != nil {
		return err
	}
	if s.spec.Placement == PlacementHLS {
		s.placement = &hlsPlacement{shell: shell, scale: tb.CM.HLSLatencyScale}
	} else {
		s.placement = &rtlPlacement{shell: shell}
	}
	fan := &Fanout{Cluster: tb.Cluster, From: hostNIC, Res: tb.Res, Trace: tb.traceHost}
	s.fanout = &hostFanout{fan: fan}
	s.block = noBlock{}
	s.transport = legacyDMA{}
	daemon := tb.Eng.NewResource(1)
	s.host = &nbdHost{
		tb:      tb,
		profile: tb.CM.D1Host,
		daemon:  daemon,
		path: &d1Path{tb: tb, place: s.placement, fan: fan, image: s.image,
			pool: s.pool, daemon: daemon},
	}
	return nil
}

// buildNBDClient wires the NBD daemon onto the user-space Ceph libraries
// (the DeLiBA-2 software baseline).
func (tb *Testbed) buildNBDClient(s *pipelineStack) error {
	client, err := newSWClient(tb, "client-d2sw")
	if err != nil {
		return err
	}
	s.block = noBlock{}
	s.transport = hostOnly{}
	s.placement = swPlacement{}
	s.fanout = &clientFanout{client: client}
	s.host = &nbdHost{
		tb:      tb,
		profile: tb.CM.D2Host,
		daemon:  tb.Eng.NewResource(1),
		path:    &clientPath{cm: tb.CM, client: client, image: s.image, pool: s.pool},
	}
	return nil
}
