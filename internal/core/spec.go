package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/lsvd"
)

// This file is the declarative half of the stack pipeline: the five layer
// kinds a DeLiBA generation is composed from, the StackSpec that names one
// composition, the spec table for the paper's five stacks, and the
// validation rules that reject combinations the modelled hardware cannot
// form. The spec's tokens are the only stack vocabulary; the imperative
// half — BuildStack in layers.go — turns a valid spec into a Stack that
// holds one concrete part per layer the spec names.

// HostAPIKind selects how block I/O enters the host side of the stack.
type HostAPIKind int

const (
	// HostIOUring is DeLiBA-K's per-core io_uring ring set (SQPOLL).
	HostIOUring HostAPIKind = iota
	// HostNBD is the DeLiBA-1/2 user-space NBD daemon loop.
	HostNBD
)

// BlockKind selects the kernel block layer between the host API and the
// transport.
type BlockKind int

const (
	// BlockDMQBypass is DeLiBA-K's DMQ: blk-mq with the scheduler bypassed
	// and direct per-core issue.
	BlockDMQBypass BlockKind = iota
	// BlockMQDeadline routes requests through an mq-deadline elevator
	// (ablation ②).
	BlockMQDeadline
	// BlockNone skips the kernel block layer entirely (the NBD daemons
	// talk to their device from user space).
	BlockNone
)

// TransportKind selects the host↔card data path.
type TransportKind int

const (
	// TransportQDMA is DeLiBA-K's UIFD + QDMA queue sets.
	TransportQDMA TransportKind = iota
	// TransportLegacyDMA is the DeLiBA-1/2 pre-QDMA DMA engine.
	TransportLegacyDMA
	// TransportHostOnly means no card at all: requests stay on the host
	// and reach the cluster through the software Ceph client.
	TransportHostOnly
)

// PlacementKind selects where CRUSH placement is computed.
type PlacementKind int

const (
	// PlacementRTL is DeLiBA-K's RTL straw2 kernel (DFX-swappable).
	PlacementRTL PlacementKind = iota
	// PlacementHLS is the DeLiBA-1/2 HLS kernel (static shell, scaled
	// latency).
	PlacementHLS
	// PlacementSoftware computes placement in the host Ceph client.
	PlacementSoftware
)

// FanoutKind selects which network path carries replica/shard fan-out.
type FanoutKind int

const (
	// FanoutCardRTL is DeLiBA-K's RTL TCP/IP stack on the card NIC.
	FanoutCardRTL FanoutKind = iota
	// FanoutCardHLS is DeLiBA-2's HLS TCP/IP stack on the card NIC.
	FanoutCardHLS
	// FanoutHostTCP fans out over the host kernel TCP/IP stack (DeLiBA-1
	// and both software baselines).
	FanoutHostTCP
)

// CacheKind selects the optional client-side write-back cache tier
// between the kernel block layer and the transport.
type CacheKind int

const (
	// CacheNone is the direct path of all five paper generations.
	CacheNone CacheKind = iota
	// CacheLSVD inserts the log-structured write-back cache
	// (internal/lsvd) on a simulated NVMe-class log device.
	CacheLSVD
)

// QoSKind selects the multi-tenant QoS scheduler installed in the kernel
// block layer. Anything but QoSNone replaces DMQ's direct bypass with a
// per-tenant elevator: requests queue in blk-mq and a rate-control policy
// decides dispatch order, trading the bypass's per-op latency for isolation
// under noisy neighbors.
type QoSKind int

const (
	// QoSNone keeps the spec's block layer untouched (bypass or deadline).
	QoSNone QoSKind = iota
	// QoSTokenBucket caps every tenant at an equal byte rate
	// (blockmq.TokenBucketScheduler).
	QoSTokenBucket
	// QoSDMClock runs the mClock-style reservation/limit/weight scheduler
	// (blockmq.DMClockScheduler).
	QoSDMClock
)

// ReplKind selects the replication protocol for the replicated pool.
type ReplKind int

const (
	// ReplPrimary is Ceph's primary-copy strong-sync protocol: the writer
	// waits for every up replica to ack (the paper's baseline and the
	// default for every existing stack).
	ReplPrimary ReplKind = iota
	// ReplRaft runs one Raft group per PG (internal/raft): writes commit
	// on a majority, reads are served locally under the leader's lease,
	// and crashed or partitioned leaders are re-elected within the
	// election timeout instead of stalling I/O until failure detection.
	ReplRaft
)

func (k HostAPIKind) String() string {
	return [...]string{"iouring", "nbd"}[k]
}

func (k BlockKind) String() string {
	return [...]string{"dmq-bypass", "mq-deadline", "noblock"}[k]
}

func (k TransportKind) String() string {
	return [...]string{"qdma", "legacy-dma", "hostonly"}[k]
}

func (k PlacementKind) String() string {
	return [...]string{"rtl-crush", "hls-crush", "sw-crush"}[k]
}

func (k FanoutKind) String() string {
	return [...]string{"card-rtl", "card-hls", "host-tcp"}[k]
}

func (k CacheKind) String() string {
	return [...]string{"cache-none", "cache-lsvd"}[k]
}

func (k ReplKind) String() string {
	return [...]string{"repl-primary", "repl-raft"}[k]
}

func (k QoSKind) String() string {
	return [...]string{"qos-none", "qos-tbucket", "qos-dmclock"}[k]
}

// StackSpec declares one stack composition. The zero value is the full
// DeLiBA-K hardware pipeline over the replicated pool.
type StackSpec struct {
	// Name labels the stack (Stack.Name). Empty derives a canonical
	// "layer+layer+..." name in BuildStack.
	Name string

	HostAPI   HostAPIKind
	Block     BlockKind
	Transport TransportKind
	Placement PlacementKind
	Fanout    FanoutKind

	// EC selects the erasure-coded pool and image instead of replicated.
	EC bool

	// Cache optionally inserts the log-structured client-side write-back
	// cache tier (internal/lsvd) under the kernel block layer, in front
	// of the transport. CacheNone is the direct path.
	Cache CacheKind
	// CacheLogMB / CacheReadMB override the cache's write-log and
	// read-cache partition sizes in MiB (0 = lsvd.DefaultConfig).
	CacheLogMB  int
	CacheReadMB int
	// CacheVerify enables the cache's acked-write shadow audit
	// (crash-recovery scenarios; costs memory per distinct range).
	CacheVerify bool
	// CacheAdmit enables the cache's reuse-gated read admission: a window
	// must miss twice before read-around fills the read cache, so
	// Zipf-tail one-touch reads fetch exact bytes and never pollute it.
	CacheAdmit bool

	// QoS selects the multi-tenant block-layer scheduler. QoSNone is every
	// paper stack's behaviour; the other kinds queue requests through a
	// per-tenant rate-control elevator on the QDMA path.
	QoS QoSKind

	// Replication selects the replication protocol for the replicated
	// pool: primary-copy (the default, all paper stacks) or per-PG
	// multi-Raft (internal/raft).
	Replication ReplKind

	// --- io_uring host-API tuning (ablation knobs) ---------------------

	// RingInterrupt switches the rings from SQPOLL to interrupt mode with
	// per-batch enter syscalls (ablation ①).
	RingInterrupt bool
	// Instances overrides the ring/queue count (0 = the paper's 3).
	Instances int
	// RingEntries overrides the per-ring SQ depth (0 = 256).
	RingEntries int
}

// namedSpecs is the paper's Fig. 3 as data: each DeLiBA generation is
// one row of layer choices, in generation order.
var namedSpecs = []StackSpec{
	{Name: "deliba-1-hw", HostAPI: HostNBD, Block: BlockNone,
		Transport: TransportLegacyDMA, Placement: PlacementHLS, Fanout: FanoutHostTCP},
	{Name: "deliba-2-sw", HostAPI: HostNBD, Block: BlockNone,
		Transport: TransportHostOnly, Placement: PlacementSoftware, Fanout: FanoutHostTCP},
	{Name: "deliba-2-hw", HostAPI: HostNBD, Block: BlockNone,
		Transport: TransportLegacyDMA, Placement: PlacementHLS, Fanout: FanoutCardHLS},
	{Name: "deliba-k-sw", HostAPI: HostIOUring, Block: BlockDMQBypass,
		Transport: TransportHostOnly, Placement: PlacementSoftware, Fanout: FanoutHostTCP},
	{Name: "deliba-k-hw", HostAPI: HostIOUring, Block: BlockDMQBypass,
		Transport: TransportQDMA, Placement: PlacementRTL, Fanout: FanoutCardRTL},
}

// NamedSpecs returns the spec table for all five paper stacks, in the
// paper's generation order.
func NamedSpecs() []StackSpec { return slices.Clone(namedSpecs) }

// canonicalName derives a stable layer-by-layer name for unnamed hybrids.
func (s StackSpec) canonicalName() string {
	name := fmt.Sprintf("%v+%v+%v+%v+%v", s.HostAPI, s.Block, s.Transport, s.Placement, s.Fanout)
	if s.EC {
		name += "+ec"
	}
	if s.Cache == CacheLSVD {
		name += "+" + s.Cache.String()
		if s.CacheAdmit {
			name += "+cacheadmit"
		}
	}
	if s.Replication == ReplRaft {
		name += "+" + s.Replication.String()
	}
	if s.QoS != QoSNone {
		name += "+" + s.QoS.String()
	}
	return name
}

// Validate rejects layer combinations the modelled hardware cannot form,
// with errors that say which pair of layers conflicts and why.
func (s StackSpec) Validate() error {
	if s.HostAPI < HostIOUring || s.HostAPI > HostNBD {
		return fmt.Errorf("core: spec %q: unknown host API %d", s.Name, int(s.HostAPI))
	}
	if s.Block < BlockDMQBypass || s.Block > BlockNone {
		return fmt.Errorf("core: spec %q: unknown block layer %d", s.Name, int(s.Block))
	}
	if s.Transport < TransportQDMA || s.Transport > TransportHostOnly {
		return fmt.Errorf("core: spec %q: unknown transport %d", s.Name, int(s.Transport))
	}
	if s.Placement < PlacementRTL || s.Placement > PlacementSoftware {
		return fmt.Errorf("core: spec %q: unknown placement %d", s.Name, int(s.Placement))
	}
	if s.Fanout < FanoutCardRTL || s.Fanout > FanoutHostTCP {
		return fmt.Errorf("core: spec %q: unknown fanout %d", s.Name, int(s.Fanout))
	}
	if s.Cache < CacheNone || s.Cache > CacheLSVD {
		return fmt.Errorf("core: spec %q: unknown cache tier %d", s.Name, int(s.Cache))
	}
	if s.Replication < ReplPrimary || s.Replication > ReplRaft {
		return fmt.Errorf("core: spec %q: unknown replication protocol %d", s.Name, int(s.Replication))
	}

	// Replication ↔ pool: Raft groups replicate whole objects through a
	// per-PG log; EC stripes shard an object across k+m OSDs and have no
	// single log to replicate.
	if s.Replication == ReplRaft && s.EC {
		return fmt.Errorf("core: spec %q: replication %v applies to the replicated pool; it cannot drive erasure-coded stripes (drop ec)", s.Name, s.Replication)
	}

	// Cache tier ↔ host API/block layer: the LSVD cache is a kernel
	// block-layer citizen interposed under the ring target; the NBD
	// daemons run in user space and have no block layer to host it.
	if s.Cache == CacheLSVD {
		if s.HostAPI != HostIOUring {
			return fmt.Errorf("core: spec %q: cache tier %v lives under the kernel block layer and requires host API %v (the %v daemon runs in user space)", s.Name, s.Cache, HostIOUring, s.HostAPI)
		}
		if s.Block == BlockNone {
			return fmt.Errorf("core: spec %q: cache tier %v requires a kernel block layer (dmq-bypass or mq-deadline), not %v", s.Name, s.Cache, s.Block)
		}
	}
	if s.Cache == CacheNone && (s.CacheLogMB != 0 || s.CacheReadMB != 0 || s.CacheVerify || s.CacheAdmit) {
		return fmt.Errorf("core: spec %q: cache options (cachelog/cacheread/verify/cacheadmit) require %v", s.Name, CacheLSVD)
	}
	if s.CacheLogMB < 0 || s.CacheReadMB < 0 {
		return fmt.Errorf("core: spec %q: negative cache size (log=%d read=%d MiB)", s.Name, s.CacheLogMB, s.CacheReadMB)
	}
	if s.CacheLogMB > maxCacheMB || s.CacheReadMB > maxCacheMB {
		return fmt.Errorf("core: spec %q: cache size (log=%d read=%d MiB) above %d MiB", s.Name, s.CacheLogMB, s.CacheReadMB, maxCacheMB)
	}
	if seg := lsvd.DefaultConfig().SegmentBytes; s.CacheLogMB != 0 && int64(s.CacheLogMB)<<20 < seg {
		return fmt.Errorf("core: spec %q: cachelog %d MiB holds no %d MiB log segment", s.Name, s.CacheLogMB, seg>>20)
	}

	// Host API ↔ block layer: io_uring submits into the kernel block
	// layer; the NBD daemons predate DMQ and never touch it.
	if s.HostAPI == HostIOUring && s.Block == BlockNone {
		return fmt.Errorf("core: spec %q: host API %v requires a kernel block layer (dmq-bypass or mq-deadline), not %v", s.Name, s.HostAPI, s.Block)
	}
	if s.HostAPI == HostNBD && s.Block != BlockNone {
		return fmt.Errorf("core: spec %q: host API %v runs in user space and cannot drive block layer %v (use noblock)", s.Name, s.HostAPI, s.Block)
	}

	// Block layer ↔ transport: DMQ issues into UIFD/QDMA hardware
	// contexts; with no card the kernel RBD target is host-only.
	if s.Transport == TransportQDMA && s.HostAPI != HostIOUring {
		return fmt.Errorf("core: spec %q: transport %v requires host API %v (UIFD binds blk-mq contexts to QDMA queue sets)", s.Name, s.Transport, HostIOUring)
	}
	if s.Transport == TransportLegacyDMA && s.HostAPI != HostNBD {
		return fmt.Errorf("core: spec %q: transport %v is driven by the user-space daemon and requires host API %v", s.Name, s.Transport, HostNBD)
	}
	if s.Block == BlockMQDeadline && s.Transport != TransportQDMA {
		return fmt.Errorf("core: spec %q: block layer %v only exists on the %v path", s.Name, s.Block, TransportQDMA)
	}

	// Placement ↔ transport: card kernels need a card; the software
	// client needs no card at all.
	cardTransport := s.Transport == TransportQDMA || s.Transport == TransportLegacyDMA
	if s.Placement != PlacementSoftware && !cardTransport {
		return fmt.Errorf("core: spec %q: placement %v runs on the card and requires transport %v or %v", s.Name, s.Placement, TransportQDMA, TransportLegacyDMA)
	}
	if s.Placement == PlacementSoftware && cardTransport {
		return fmt.Errorf("core: spec %q: placement %v needs no card; transport %v would carry requests to one", s.Name, s.Placement, s.Transport)
	}

	// Fanout ↔ placement/transport: a card NIC can only fan out what the
	// card placed; the host NIC serves the daemon and the software client.
	switch s.Fanout {
	case FanoutCardRTL, FanoutCardHLS:
		if s.Placement == PlacementSoftware {
			return fmt.Errorf("core: spec %q: fanout %v runs on the card and cannot use %v (the card never learns the placement)", s.Name, s.Fanout, s.Placement)
		}
	case FanoutHostTCP:
		if s.Placement != PlacementSoftware && s.Transport != TransportLegacyDMA {
			return fmt.Errorf("core: spec %q: fanout %v with card placement %v needs the %v offload round trip (the DeLiBA-1 shape)", s.Name, s.Fanout, s.Placement, TransportLegacyDMA)
		}
	}

	// EC needs an RS path: the card's RS accelerator or the software
	// client's codec. The D1 shape (card placement, host fan-out) has
	// neither.
	if s.EC && s.Fanout == FanoutHostTCP && s.Placement != PlacementSoftware {
		return errNoECInD1
	}

	// QoS ↔ block layer/transport: the QoS schedulers are blk-mq elevators
	// driving UIFD hardware contexts; they need the io_uring + QDMA path
	// and replace any other elevator.
	if s.QoS < QoSNone || s.QoS > QoSDMClock {
		return fmt.Errorf("core: spec %q: unknown QoS scheduler %d", s.Name, int(s.QoS))
	}
	if s.QoS != QoSNone {
		if s.Transport != TransportQDMA {
			return fmt.Errorf("core: spec %q: QoS %v schedules blk-mq hardware contexts and requires transport %v", s.Name, s.QoS, TransportQDMA)
		}
		if s.Block == BlockMQDeadline {
			return fmt.Errorf("core: spec %q: QoS %v installs its own elevator and conflicts with block layer %v (use dmq-bypass)", s.Name, s.QoS, s.Block)
		}
	}

	// Ring tuning is meaningless without rings.
	if s.HostAPI != HostIOUring && (s.RingInterrupt || s.Instances != 0 || s.RingEntries != 0) {
		return fmt.Errorf("core: spec %q: ring options (interrupt/instances/entries) require host API %v", s.Name, HostIOUring)
	}
	if s.Instances < 0 || s.Instances > 64 {
		return fmt.Errorf("core: spec %q: instances %d out of range [0,64]", s.Name, s.Instances)
	}
	if s.RingEntries < 0 {
		return fmt.Errorf("core: spec %q: negative ring entries %d", s.Name, s.RingEntries)
	}
	if s.RingEntries > maxRingEntries {
		return fmt.Errorf("core: spec %q: ring entries %d above io_uring's limit %d", s.Name, s.RingEntries, maxRingEntries)
	}
	return nil
}

const (
	// maxRingEntries is io_uring's own SQ limit (IORING_MAX_ENTRIES).
	maxRingEntries = 32768
	// maxCacheMB bounds the cache partitions at 1 TiB: the log's segment
	// table is allocated when the stack is built.
	maxCacheMB = 1 << 20
)

// ringInstances resolves the ring/queue count.
func (s StackSpec) ringInstances() int {
	if s.Instances > 0 {
		return s.Instances
	}
	return DKInstances
}

// ringDepth resolves the per-ring SQ depth.
func (s StackSpec) ringDepth() int {
	if s.RingEntries > 0 {
		return s.RingEntries
	}
	return ringEntries
}

// applyToken applies one layer/option token to the spec.
func (spec *StackSpec) applyToken(tok string) error {
	if v, ok := strings.CutPrefix(tok, "instances="); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("core: bad instances %q", v)
		}
		spec.Instances = n
		return nil
	}
	if v, ok := strings.CutPrefix(tok, "entries="); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("core: bad entries %q", v)
		}
		spec.RingEntries = n
		return nil
	}
	if v, ok := strings.CutPrefix(tok, "cachelog="); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("core: bad cachelog %q", v)
		}
		spec.CacheLogMB = n
		return nil
	}
	if v, ok := strings.CutPrefix(tok, "cacheread="); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("core: bad cacheread %q", v)
		}
		spec.CacheReadMB = n
		return nil
	}
	switch tok {
	case "iouring":
		spec.HostAPI = HostIOUring
	case "nbd":
		spec.HostAPI = HostNBD
	case "dmq-bypass":
		spec.Block = BlockDMQBypass
	case "mq-deadline":
		spec.Block = BlockMQDeadline
	case "noblock":
		spec.Block = BlockNone
	case "qdma":
		spec.Transport = TransportQDMA
	case "legacy-dma":
		spec.Transport = TransportLegacyDMA
	case "hostonly":
		spec.Transport = TransportHostOnly
	case "rtl-crush":
		spec.Placement = PlacementRTL
	case "hls-crush":
		spec.Placement = PlacementHLS
	case "sw-crush":
		spec.Placement = PlacementSoftware
	case "card-rtl":
		spec.Fanout = FanoutCardRTL
	case "card-hls":
		spec.Fanout = FanoutCardHLS
	case "host-tcp":
		spec.Fanout = FanoutHostTCP
	case "ec":
		spec.EC = true
	case "interrupt":
		spec.RingInterrupt = true
	case "cache-lsvd":
		spec.Cache = CacheLSVD
	case "cache-none":
		spec.Cache = CacheNone
	case "repl-raft":
		spec.Replication = ReplRaft
	case "repl-primary":
		spec.Replication = ReplPrimary
	case "cacheadmit":
		spec.CacheAdmit = true
	case "qos-none":
		spec.QoS = QoSNone
	case "qos-tbucket":
		spec.QoS = QoSTokenBucket
	case "qos-dmclock":
		spec.QoS = QoSDMClock
	default:
		return fmt.Errorf("core: unknown stack layer token %q", tok)
	}
	return nil
}

// ParseStackSpec builds a spec from a command-line string: one of the
// five NamedSpecs names ("deliba-k-hw", ...), a named stack extended with
// '+'-joined option tokens ("deliba-k-hw+cache-lsvd"), or a comma- or
// '+'-separated list of layer tokens and options, e.g.
//
//	"iouring,dmq-bypass,qdma,rtl-crush,card-rtl,ec,instances=1"
//
// Omitted layers default to the DeLiBA-K hardware pipeline; the result is
// validated.
func ParseStackSpec(s string) (StackSpec, error) {
	toks := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '+' })
	var spec StackSpec
	named := false
	for i := range toks {
		toks[i] = strings.TrimSpace(toks[i])
		tok := toks[i]
		if tok == "" {
			continue
		}
		if n := slices.IndexFunc(namedSpecs, func(row StackSpec) bool { return row.Name == tok }); n >= 0 {
			if i != 0 {
				return StackSpec{}, fmt.Errorf("core: stack name %q must come first in %q", tok, s)
			}
			spec = namedSpecs[n]
			named = true
			continue
		}
		if err := spec.applyToken(tok); err != nil {
			return StackSpec{}, err
		}
	}
	if named && len(toks) > 1 {
		// A named base with extensions keeps the readable compound name
		// ("deliba-k-hw+cache-lsvd"), normalised to '+' separators.
		spec.Name = strings.Join(toks, "+")
	} else if !named {
		spec.Name = spec.canonicalName()
	}
	if err := spec.Validate(); err != nil {
		return StackSpec{}, err
	}
	return spec, nil
}
