package core

import (
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/fpga"
	"repro/internal/iouring"
	"repro/internal/lsvd"
	"repro/internal/qdma"
	"repro/internal/rados"
	"repro/internal/raft"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/uifd"
)

// This file is the imperative half of the stack pipeline: the host API
// boundary, the card placement kernel, the composed stack, and BuildStack,
// which wires a validated StackSpec into a running Stack. The spec's layer
// tokens pick the parts; the stack holds the parts directly, nil where the
// spec has no such layer. Every DeLiBA generation — and any valid hybrid —
// is one path through these constructors.
//
// Fidelity note: the builders keep a fixed construction order (fabric
// host → shell → card backend → QDMA/UIFD → blk-mq → rings) and event
// sequences (fused daemon CPU charges, fused card pipeline reservations),
// because experiment digests are bit-exact regression oracles and event
// tie-breaking is creation-order sensitive.

// HostAPI is how block I/O enters the stack: DeLiBA-K's io_uring ring set
// or the DeLiBA-1/2 NBD daemon loop. It runs io, the record the stack
// filled (op, range, tenant, root trace), and calls io.Complete once.
type HostAPI interface {
	Submit(io *blockmq.IO)
	Close()
}

// --- card placement ------------------------------------------------------

// cardPlacement is the CRUSH straw2 kernel on the card's FPGA shell. scale
// is the kernel generation's latency scale: 1 for DeLiBA-K's RTL kernel
// (no penalty beyond the kernel occupancy itself), the HLS slowdown for
// the DeLiBA-1/2 HLS kernels, charged on top. Software placement has no
// cardPlacement: the client's request cost embeds it.
type cardPlacement struct {
	shell *fpga.Shell
	scale float64
	free  []*placeSel
}

// extra returns the additional latency a kernel of this generation pays
// over the RTL redesign for passes pipeline passes (zero at scale 1).
func (pl *cardPlacement) extra(spec fpga.KernelSpec, passes int) sim.Duration {
	if pl.scale <= 1 {
		return 0
	}
	return sim.Duration(float64(spec.PipelineLatency()) * (pl.scale - 1) * float64(passes))
}

// placeSel is one placement in flight on the card's straw2 kernel. Selects
// are pooled on their placement with the kernel callback bound once.
type placeSel struct {
	pl      *cardPlacement
	penalty sim.Duration
	cont    func(sim.Duration, error)
	done    func([]int, error)
}

// Select computes one of the pool's PG placements asynchronously on the
// card, from the same CRUSH input Cluster.ActingSet selects on; cont
// receives the post-selection kernel penalty to charge (the HLS slowdown)
// and any error.
func (pl *cardPlacement) Select(pool *rados.Pool, pg uint32, cont func(sim.Duration, error)) {
	var s *placeSel
	if k := len(pl.free); k > 0 {
		s = pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
	} else {
		s = &placeSel{pl: pl}
		s.done = s.selected
	}
	s.penalty, s.cont = pl.extra(pl.shell.Straw2.Spec, pool.Width()), cont
	pl.shell.Straw2.Select(pg, uint32(pool.ID), pool.Width(), s.done)
}

func (s *placeSel) selected(_ []int, err error) {
	penalty, cont := s.penalty, s.cont
	s.cont = nil
	s.pl.free = append(s.pl.free, s)
	cont(penalty, err)
}

// --- the composed stack --------------------------------------------------

// pipelineStack is the one Stack implementation: the parts its spec names,
// assembled by BuildStack. Each part is nil where the spec has no such
// layer.
type pipelineStack struct {
	tb    *Testbed
	spec  StackSpec
	image *rbd.Image
	pool  *rados.Pool

	host HostAPI
	// mq and drv are the blk-mq instance and the UIFD driver of the QDMA
	// transport.
	mq  *blockmq.MQ
	drv *uifd.Driver
	// shell is the FPGA design hosting the card's CRUSH kernels (rtl-crush
	// or hls-crush placement).
	shell *fpga.Shell
	// fan is the raw fan-out engine on the card NIC or DeLiBA-1's host
	// NIC; client is the software Ceph client. A stack has one of them.
	fan    *Fanout
	client *rados.Client
	// cache is the LSVD write-back tier (cache-lsvd).
	cache *lsvd.Cache
	// ios recycles the stack's per-I/O records.
	ios blockmq.IOPool
}

func (s *pipelineStack) Name() string { return s.spec.Name }

func (s *pipelineStack) Submit(op OpType, pattern Pattern, off int64, n int, cpu int, done func(error)) {
	s.SubmitTenant(op, pattern, off, n, cpu, 0, done)
}

func (s *pipelineStack) SubmitTenant(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, done func(error)) {
	io := s.ios.Get()
	io.Op, io.Pattern, io.Off, io.Len, io.CPU, io.Tenant, io.Done = op, pattern, off, n, cpu, tenant, done
	// Root the per-I/O trace here: every op (sampled or not) advances the
	// deterministic submit sequence the sampling policy keys on.
	if sink := s.tb.traceHost; sink != nil {
		name := "io-read"
		if op == Write {
			name = "io-write"
		}
		if h := sink.Root(name); h.On() {
			h.SetTenant(tenant)
			io.Span, io.Trace = h, h.Ref()
		}
	}
	s.host.Submit(io)
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
func (s *pipelineStack) Shell() *fpga.Shell { return s.shell }

// MQ exposes the blk-mq instance (for ablation statistics); nil off the
// QDMA path.
func (s *pipelineStack) MQ() *blockmq.MQ { return s.mq }

// Driver exposes the UIFD driver; nil off the QDMA path.
func (s *pipelineStack) Driver() *uifd.Driver { return s.drv }

// Rings exposes the io_uring instances; nil for NBD host APIs.
func (s *pipelineStack) Rings() []*iouring.Ring {
	if rs, ok := s.host.(*ringSet); ok {
		return rs.rings
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
	var err error
	if spec.HostAPI == HostIOUring {
		err = tb.buildURing(s)
	} else {
		err = tb.buildNBD(s)
	}
	if err != nil {
		return nil, err
	}
	if spec.Replication == ReplRaft {
		// Route the replicated pool through the per-PG Raft backend: the
		// fan-out engine and the software client both dispatch to a router
		// bound to the stack's own client endpoint.
		sys := tb.raftSystem()
		if s.fan != nil {
			r := raft.NewRouter(sys, s.fan.From)
			r.Sink = tb.traceHost
			s.fan.Raft = r
		}
		if s.client != nil {
			r := raft.NewRouter(sys, s.client.Host)
			r.Sink = tb.traceHost
			s.client.Repl = r
		}
	}
	return s, nil
}

// buildPlacement builds the card's FPGA shell and its CRUSH kernel for the
// spec's placement generation. HLS designs predate DFX: static shell, no
// swappable RMs.
func (tb *Testbed) buildPlacement(s *pipelineStack) (*cardPlacement, error) {
	hls := s.spec.Placement == PlacementHLS
	shell, err := buildShell(tb, s.pool, hls)
	if err != nil {
		return nil, err
	}
	s.shell = shell
	pl := &cardPlacement{shell: shell, scale: 1}
	if hls {
		pl.scale = tb.CM.HLSLatencyScale
	}
	return pl, nil
}

// buildCardSide wires the layers living on the card — fabric host, FPGA
// shell with the placement kernels, fan-out engine, and the card backend —
// shared by the QDMA and legacy-DMA card shapes.
func (tb *Testbed) buildCardSide(s *pipelineStack) (*cardBackend, error) {
	hostName, stack, procCost := "fpga-cmac", tb.CM.RTLStack, tb.CM.CardProcessing
	if s.spec.Fanout == FanoutCardHLS {
		hostName, stack, procCost = "fpga-hls", tb.CM.HLSStack, tb.CM.HLSCardProcessing
	}
	cardHost, err := tb.Fabric.AddHost(hostName, tb.CM.NICBitsPerSec, stack)
	if err != nil {
		return nil, err
	}
	place, err := tb.buildPlacement(s)
	if err != nil {
		return nil, err
	}
	s.fan = &Fanout{Cluster: tb.Cluster, From: cardHost, Res: tb.Res, Trace: tb.traceHost}
	return &cardBackend{
		eng:      tb.Eng,
		cm:       tb.CM,
		place:    place,
		fan:      s.fan,
		image:    s.image,
		pool:     s.pool,
		procCost: procCost,
		trace:    tb.traceHost,
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

// buildURing wires the io_uring ring set over its ring target: the DMQ
// on the card path (io_uring → DMQ → UIFD/QDMA → card kernels → card NIC
// fan-out, DeLiBA-K's shape) or the software Ceph client (the DeLiBA-K
// software baseline, whose DMQ/RBD kernel residency is folded into the
// target's map cost), optionally behind the LSVD cache tier.
func (tb *Testbed) buildURing(s *pipelineStack) error {
	bare := s.spec.Cache == CacheLSVD
	var target ioTarget
	if s.spec.Transport == TransportQDMA {
		if err := tb.buildQDMA(s); err != nil {
			return err
		}
		target = &dmqTarget{eng: tb.Eng, mq: s.mq, mapCost: tb.CM.DKRBDMapCost,
			writeExtra: tb.CM.CardWriteOverhead, trace: tb.traceHost, bare: bare}
	} else {
		client, err := newSWClient(tb, "client-dksw")
		if err != nil {
			return err
		}
		s.client = client
		target = &radosTarget{tb: tb, client: client, image: s.image, pool: s.pool,
			mapCost: tb.CM.DKRBDMapCost, trace: tb.traceHost, bare: bare}
	}
	if s.spec.Cache == CacheLSVD {
		cached, err := tb.buildCacheTarget(s, target)
		if err != nil {
			return err
		}
		target = cached
	}
	rs, err := newRingSet(tb, s.spec, target)
	if err != nil {
		return err
	}
	s.host = rs
	return nil
}

// buildQDMA wires the card side, the UIFD driver over QDMA and the blk-mq
// instance feeding it.
func (tb *Testbed) buildQDMA(s *pipelineStack) error {
	backend, err := tb.buildCardSide(s)
	if err != nil {
		return err
	}
	qe := qdma.New(tb.Eng, qdma.DefaultConfig())
	queueKind := qdma.ReplicationQueue
	if s.spec.EC {
		queueKind = qdma.ErasureQueue
	}
	s.drv, err = uifd.NewDriver(tb.Eng, qe, backend, uifd.Config{
		HWQueues: s.spec.ringInstances(),
		Queue:    queueKind,
		VFs:      uifdTenantVFs,
	})
	if err != nil {
		return err
	}
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
	s.mq, err = blockmq.New(tb.Eng, mqCfg, s.drv)
	if err != nil {
		return err
	}
	s.mq.SetTraceSink(tb.traceHost)
	return nil
}

// buildNBD wires the NBD daemon loop onto its datapath: the user-space
// Ceph libraries (the DeLiBA-2 software baseline), card placement offload
// with host-side fan-out (DeLiBA-1's shape), or the card over legacy DMA
// (DeLiBA-2's shape).
func (tb *Testbed) buildNBD(s *pipelineStack) error {
	h := &nbdHost{tb: tb, profile: tb.CM.D2Host, daemon: tb.Eng.NewResource(1)}
	switch {
	case s.spec.Transport == TransportHostOnly:
		client, err := newSWClient(tb, "client-d2sw")
		if err != nil {
			return err
		}
		s.client = client
		h.path = &clientPath{cm: tb.CM, client: client, image: s.image, pool: s.pool}
	case s.spec.Fanout == FanoutHostTCP:
		hostNIC, err := tb.Fabric.AddHost("client-d1", tb.CM.NICBitsPerSec, tb.CM.D1NetStack)
		if err != nil {
			return err
		}
		place, err := tb.buildPlacement(s)
		if err != nil {
			return err
		}
		s.fan = &Fanout{Cluster: tb.Cluster, From: hostNIC, Res: tb.Res, Trace: tb.traceHost}
		h.profile = tb.CM.D1Host
		h.path = &d1Path{tb: tb, place: place, hls: s.spec.Placement == PlacementHLS,
			fan: s.fan, image: s.image, pool: s.pool, daemon: h.daemon}
	default:
		backend, err := tb.buildCardSide(s)
		if err != nil {
			return err
		}
		h.path = &legacyCardPath{cm: tb.CM, backend: backend}
	}
	s.host = h
	return nil
}
