// Package qdma models the Xilinx/AMD QDMA (Queue DMA) subsystem for PCI
// Express as customised by DeLiBA-K: up to 2048 queue sets, each a triple of
// H2C descriptor ring, C2H descriptor ring and C2H completion ring; the five
// RTL modules of the paper's Figure 2 (Requester Request, Descriptor
// Engine, H2C streaming, C2H streaming, Completion Engine); 128-byte
// descriptors held in UltraRAM; a 32 KiB H2C re-order buffer with up to 256
// concurrent I/Os; and SR-IOV physical/virtual functions for multi-tenancy.
package qdma

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Queue-set limits from the DeLiBA-K implementation.
const (
	// MaxQueueSets is the customised IP's queue-set capacity.
	MaxQueueSets = 2048
	// DescriptorBytes is the fixed descriptor size.
	DescriptorBytes = 128
	// DescriptorRAMBudget bounds total descriptor memory (the paper keeps
	// the per-queue configuration under 64 KiB of UltraRAM).
	DescriptorRAMBudget = 64 * 1024
	// H2CConcurrency is the maximum in-flight H2C I/Os.
	H2CConcurrency = 256
	// ReorderBufferBytes is the H2C re-order buffer capacity.
	ReorderBufferBytes = 32 * 1024
)

// Direction of a DMA transfer.
type Direction int

const (
	// H2C moves data host-to-card.
	H2C Direction = iota
	// C2H moves data card-to-host.
	C2H
)

func (d Direction) String() string {
	if d == H2C {
		return "H2C"
	}
	return "C2H"
}

// QueueKind tags a queue set with its accelerator interface, as DeLiBA-K
// configures queues per interface type.
type QueueKind int

const (
	// ReplicationQueue feeds the CRUSH replication accelerators.
	ReplicationQueue QueueKind = iota
	// ErasureQueue feeds the Reed-Solomon erasure accelerator.
	ErasureQueue
)

func (k QueueKind) String() string {
	if k == ReplicationQueue {
		return "replication"
	}
	return "erasure"
}

// FuncKind distinguishes SR-IOV physical from virtual functions.
type FuncKind int

const (
	// PF is a physical function (bare-metal tenant).
	PF FuncKind = iota
	// VF is a virtual function passed through to a VM tenant.
	VF
)

// Function is an SR-IOV function owning a slice of queue sets.
type Function struct {
	ID       int
	Kind     FuncKind
	MaxQSets int
	owned    int
}

// Config parameterises the engine timing.
type Config struct {
	// ClockHz is the datapath clock (DeLiBA-K: ~250 MHz user clock).
	ClockHz float64
	// BusWidthBits is the datapath width (256 initially, 512 provisioned).
	BusWidthBits int
	// PCIeGBps is the effective PCIe Gen3 x16 bandwidth in bytes/second.
	PCIeGBps float64
	// DescriptorFetchCycles is the descriptor-engine cost per descriptor.
	DescriptorFetchCycles int
	// CompletionCycles is the completion-engine cost per completion.
	CompletionCycles int
	// RingDepth is the per-ring descriptor capacity.
	RingDepth int
}

// DefaultConfig matches the paper's stated configuration.
func DefaultConfig() Config {
	return Config{
		ClockHz:               250e6,
		BusWidthBits:          256,
		PCIeGBps:              15.75e9,
		DescriptorFetchCycles: 16,
		CompletionCycles:      8,
		RingDepth:             64,
	}
}

// Errors.
var (
	ErrNoQueueSets = errors.New("qdma: queue-set capacity exhausted")
	ErrRingFull    = errors.New("qdma: descriptor ring full")
	ErrQuota       = errors.New("qdma: function queue quota exhausted")
)

// Engine is the QDMA core: a shared datapath with per-queue-set rings.
type Engine struct {
	eng *sim.Engine
	cfg Config

	// bus serializes streaming transfers (the 256-bit datapath).
	bus sim.Server
	// h2cInFlight enforces the 256-I/O H2C limit.
	h2cInFlight int
	// reorderUsed tracks H2C re-order buffer occupancy in bytes.
	reorderUsed int

	queueSets []*QueueSet
	functions []*Function
	// free recycles completed transfers (see xfer).
	free []*xfer

	// Stats.
	transfers  uint64
	bytesMoved uint64
	stalls     uint64 // transfers delayed by H2C concurrency/reorder limits
}

// New builds a QDMA engine.
func New(eng *sim.Engine, cfg Config) *Engine {
	if cfg.ClockHz == 0 {
		cfg = DefaultConfig()
	}
	return &Engine{eng: eng, cfg: cfg}
}

// Cycles converts a cycle count to a duration at the datapath clock.
func (e *Engine) Cycles(n int) sim.Duration {
	return sim.Duration(float64(n) / e.cfg.ClockHz * 1e9)
}

// streamTime is the datapath time for n bytes at width bits/cycle.
func (e *Engine) streamTime(n int) sim.Duration {
	bytesPerCycle := e.cfg.BusWidthBits / 8
	cycles := (n + bytesPerCycle - 1) / bytesPerCycle
	return e.Cycles(cycles)
}

// pcieTime is the wire time across PCIe.
func (e *Engine) pcieTime(n int) sim.Duration {
	return sim.Duration(float64(n) / e.cfg.PCIeGBps * 1e9)
}

// AddFunction registers an SR-IOV function with a queue-set quota.
func (e *Engine) AddFunction(kind FuncKind, maxQSets int) *Function {
	f := &Function{ID: len(e.functions), Kind: kind, MaxQSets: maxQSets}
	e.functions = append(e.functions, f)
	return f
}

// Functions returns the registered SR-IOV functions.
func (e *Engine) Functions() []*Function { return e.functions }

// QueueSet is one of the up-to-2048 ring triples.
type QueueSet struct {
	ID   int
	Kind QueueKind
	Fn   *Function

	engine *Engine
	// Ring occupancy (descriptors posted but not yet consumed).
	h2cPending  int
	c2hPending  int
	completions int
}

// AllocQueueSet carves a queue set out of the engine for a function.
func (e *Engine) AllocQueueSet(kind QueueKind, fn *Function) (*QueueSet, error) {
	if len(e.queueSets) >= MaxQueueSets {
		return nil, ErrNoQueueSets
	}
	if fn != nil {
		if fn.owned >= fn.MaxQSets {
			return nil, ErrQuota
		}
		fn.owned++
	}
	qs := &QueueSet{ID: len(e.queueSets), Kind: kind, Fn: fn, engine: e}
	e.queueSets = append(e.queueSets, qs)
	return qs, nil
}

// QueueSets returns the allocated count.
func (e *Engine) QueueSets() int { return len(e.queueSets) }

// DescriptorRAM returns bytes of descriptor memory currently provisioned;
// the implementation keeps this under DescriptorRAMBudget.
func (e *Engine) DescriptorRAM() int {
	return len(e.queueSets) * 2 * DescriptorBytes // one H2C + one C2H context each
}

// Stats returns cumulative transfer counters.
func (e *Engine) Stats() (transfers, bytes, stalls uint64) {
	return e.transfers, e.bytesMoved, e.stalls
}

// Transfer runs one DMA of n payload bytes in the given direction through
// the queue set and invokes done when the completion entry is posted. The
// cost sequence models the paper's pipeline: descriptor fetch (DE) →
// PCIe + datapath streaming (H2C/C2H) → completion (CE). H2C transfers
// respect the concurrency and re-order buffer limits; excess transfers
// stall until capacity frees.
func (qs *QueueSet) Transfer(dir Direction, n int, done func()) error {
	e := qs.engine
	if n < 0 {
		return fmt.Errorf("qdma: negative transfer size %d", n)
	}
	if dir == H2C {
		if qs.h2cPending >= e.cfg.RingDepth {
			return ErrRingFull
		}
		qs.h2cPending++
	} else {
		if qs.c2hPending >= e.cfg.RingDepth {
			return ErrRingFull
		}
		qs.c2hPending++
	}
	x := e.getXfer()
	x.qs, x.dir, x.n, x.done = qs, dir, n, done
	if dir == H2C {
		e.admitH2C(x)
	} else {
		e.eng.Schedule(0, x.startFn)
	}
	return nil
}

// xfer is one DMA transfer in flight. Transfers are pooled on the engine
// with their events bound once, so steady-state DMA allocates nothing.
type xfer struct {
	qs   *QueueSet
	dir  Direction
	n    int
	done func()

	startFn, completeFn, admitFn func()
}

func (e *Engine) getXfer() *xfer {
	if k := len(e.free); k > 0 {
		x := e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		return x
	}
	x := &xfer{}
	x.startFn = x.start
	x.completeFn = x.complete
	x.admitFn = func() { x.qs.engine.admitH2C(x) }
	return x
}

// start runs once the transfer is admitted: descriptor fetch, then the
// payload streams over the shared datapath, then the completion entry.
func (x *xfer) start() {
	e := x.qs.engine
	// Descriptor fetch by the Descriptor Engine.
	fetch := e.Cycles(e.cfg.DescriptorFetchCycles)
	// Streaming occupies the shared datapath FIFO-style.
	wire := e.streamTime(x.n)
	if e.pcieTime(x.n) > wire {
		wire = e.pcieTime(x.n)
	}
	done := e.bus.Book(e.eng.Now().Add(fetch), wire)
	e.eng.At(done.Add(e.Cycles(e.cfg.CompletionCycles)), x.completeFn)
}

// complete posts the completion entry, recycles x and runs done.
func (x *xfer) complete() {
	qs, e := x.qs, x.qs.engine
	e.transfers++
	e.bytesMoved += uint64(x.n)
	if x.dir == H2C {
		qs.h2cPending--
		e.h2cInFlight--
		e.reorderUsed -= reorderFootprint(x.n)
	} else {
		qs.c2hPending--
	}
	qs.completions++
	done := x.done
	x.qs, x.done = nil, nil
	e.free = append(e.free, x)
	done()
}

// reorderFootprint is the slice of the re-order buffer an in-flight H2C
// transfer occupies (capped: large transfers stream through in chunks).
func reorderFootprint(n int) int {
	if n > 4096 {
		return 4096
	}
	return n
}

// admitH2C delays the transfer's start until the H2C concurrency and
// re-order buffer admit it.
func (e *Engine) admitH2C(x *xfer) {
	foot := reorderFootprint(x.n)
	if e.h2cInFlight < H2CConcurrency && e.reorderUsed+foot <= ReorderBufferBytes {
		e.h2cInFlight++
		e.reorderUsed += foot
		e.eng.Schedule(0, x.startFn)
		return
	}
	// Stall: poll for capacity at descriptor-engine granularity.
	e.stalls++
	e.eng.Schedule(e.Cycles(e.cfg.DescriptorFetchCycles), x.admitFn)
}

// Pending returns outstanding descriptors per direction.
func (qs *QueueSet) Pending(dir Direction) int {
	if dir == H2C {
		return qs.h2cPending
	}
	return qs.c2hPending
}

// Completions returns the number of completion entries posted so far.
func (qs *QueueSet) Completions() int { return qs.completions }
