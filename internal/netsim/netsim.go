// Package netsim models the cluster network: hosts with NICs, link
// bandwidth with FIFO serialization, propagation delay, and per-message
// protocol-stack costs. Two stack profiles matter for DeLiBA-K: the host
// software TCP/IP stack (kernel networking on the client and OSD nodes) and
// the FPGA RTL TCP/IP stack (DeLiBA-K optimization ⑥), which trades host
// CPU per-message cost for a small fixed pipeline latency.
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// StackCost describes the protocol-processing cost charged on a host for
// each message sent or received, before/after the wire.
type StackCost struct {
	// PerMessage is the fixed cost per message (syscalls, interrupts,
	// protocol processing).
	PerMessage sim.Duration
	// PerKiB is the data-touching cost per 1024 bytes (checksums, copies).
	PerKiB sim.Duration
}

// Cost returns the stack cost for a message of n bytes.
func (s StackCost) Cost(n int) sim.Duration {
	return s.PerMessage + sim.Duration(int64(s.PerKiB)*int64(n)/1024)
}

// Standard stack profiles. Values are calibrated in internal/core/costmodel
// against the paper's software baseline; these are the package defaults.
var (
	// SoftwareStack models the kernel TCP/IP path.
	SoftwareStack = StackCost{PerMessage: 8 * sim.Microsecond, PerKiB: 120 * sim.Nanosecond}
	// RTLStack models DeLiBA-K's Verilog TX/RX path at 260 MHz: no host
	// CPU involvement, just pipeline latency.
	RTLStack = StackCost{PerMessage: 900 * sim.Nanosecond, PerKiB: 25 * sim.Nanosecond}
)

// NIC is a network port with a fixed line rate. Transmissions serialize
// FIFO: each Send occupies the wire for bytes/rate and queues behind
// earlier sends.
type NIC struct {
	eng *sim.Engine
	// bytesPerSec is the line rate.
	bytesPerSec float64
	// nextFree is when the transmit side of the wire becomes idle.
	nextFree sim.Time
	// Stats.
	txBytes uint64
	txMsgs  uint64
	busy    sim.Duration
	drops   uint64
}

// NICStats is a read-only snapshot of a NIC's transmit counters. Drops
// counts messages the fault layer removed after they left this NIC, so
// fault experiments can compare observed against configured loss.
type NICStats struct {
	TxBytes uint64
	TxMsgs  uint64
	Busy    sim.Duration
	Drops   uint64
}

// NewNIC returns a NIC with the given line rate in bits per second.
func NewNIC(eng *sim.Engine, bitsPerSec float64) *NIC {
	return &NIC{eng: eng, bytesPerSec: bitsPerSec / 8}
}

// WireTime returns the serialization delay for n bytes.
func (n *NIC) WireTime(bytes int) sim.Duration {
	return sim.Duration(float64(bytes) / n.bytesPerSec * 1e9)
}

// reserve books the wire for n bytes starting no earlier than at, returning
// the moment the last byte leaves.
func (n *NIC) reserve(at sim.Time, bytes int) sim.Time {
	start := at
	if n.nextFree > start {
		start = n.nextFree
	}
	wire := n.WireTime(bytes)
	n.nextFree = start.Add(wire)
	n.txBytes += uint64(bytes)
	n.txMsgs++
	n.busy += wire
	return n.nextFree
}

// Stats returns a snapshot of the NIC's transmit counters.
func (n *NIC) Stats() NICStats {
	return NICStats{TxBytes: n.txBytes, TxMsgs: n.txMsgs, Busy: n.busy, Drops: n.drops}
}

// TxBytes returns total bytes transmitted.
func (n *NIC) TxBytes() uint64 { return n.txBytes }

// TxMessages returns total messages transmitted.
func (n *NIC) TxMessages() uint64 { return n.txMsgs }

// BusyTime returns cumulative wire-busy time.
func (n *NIC) BusyTime() sim.Duration { return n.busy }

// countDrop records one message lost after transmission.
func (n *NIC) countDrop() { n.drops++ }

// Host is a network endpoint with one NIC and a protocol stack profile.
// Stack costs serialize on the host's stack processor: a host sending or
// receiving many messages becomes protocol-limited even when the wire has
// headroom — the effect that separates the HLS and RTL TCP/IP paths at
// large block sizes.
type Host struct {
	Name  string
	NIC   *NIC
	Stack StackCost
	eng   *sim.Engine
	// dom is the topology domain on a sharded fabric (see Fabric.Shard);
	// all of this host's state lives on the shard that domain is pinned to.
	dom sim.DomainID

	// workers are the stack processors' next-free times; multi-core hosts
	// run several protocol workers (irq/softirq spreading), single-engine
	// pipelines (an FPGA TCP core, a 1-thread daemon) have one.
	workers   []sim.Time
	stackBusy sim.Duration
	// deliveries recycles cross-domain arrival records. A record is taken
	// from the sender's list and returned to the receiver's when it
	// arrives, so each list is only touched on its host's shard.
	deliveries []*delivery
}

// maxDeliveries bounds a host's recycled delivery records, so a host that
// only receives cannot pin an ever-growing list.
const maxDeliveries = 4096

// delivery is one cross-domain message between its NIC instant and its
// arrival, with the arrival step bound once.
type delivery struct {
	dst      *Host
	n        int
	onArrive func()
	fn       func()
}

// arrive books the receiver's stack at the canonical NIC instant and
// schedules onArrive, returning the record to the receiver's list first.
func (d *delivery) arrive() {
	dst, n, onArrive := d.dst, d.n, d.onArrive
	d.dst, d.onArrive = nil, nil
	if len(dst.deliveries) < maxDeliveries {
		dst.deliveries = append(dst.deliveries, d)
	}
	at := dst.reserveStack(dst.eng.Now(), dst.Stack.Cost(n))
	dst.eng.At(at, onArrive)
}

// SetStackWorkers sets the number of parallel protocol processors.
func (h *Host) SetStackWorkers(n int) {
	if n < 1 {
		n = 1
	}
	h.workers = make([]sim.Time, n)
}

// reserveStack books the earliest-free stack processor starting no earlier
// than at, returning when the processing finishes.
func (h *Host) reserveStack(at sim.Time, cost sim.Duration) sim.Time {
	best := 0
	for i, w := range h.workers {
		if w < h.workers[best] {
			best = i
		}
		_ = w
	}
	start := at
	if h.workers[best] > start {
		start = h.workers[best]
	}
	h.workers[best] = start.Add(cost)
	h.stackBusy += cost
	return h.workers[best]
}

// StackBusyTime returns cumulative protocol-processing time on this host.
func (h *Host) StackBusyTime() sim.Duration { return h.stackBusy }

// Fabric is a set of hosts joined by a non-blocking switch with uniform
// propagation delay (the paper's single-switch 10 GbE lab network).
type Fabric struct {
	eng         *sim.Engine
	hosts       map[string]*Host
	propagation sim.Duration
	// faultHook, when set, is consulted once per wire message (self-sends
	// excluded); returning true drops the message after the sender has paid
	// its stack and wire costs — the receiver never sees it. The fault
	// layer (internal/faults) installs loss, flap and partition models
	// here; the healthy path pays one nil check.
	faultHook func(src, dst *Host, n int) bool
	// group, when set (Shard), partitions the fabric's hosts over topology
	// domains of a sharded engine group: a message between hosts in
	// different domains is handed to the destination shard via PostAt at
	// its NIC-arrival instant. The propagation delay must be at least the
	// group's conservative lookahead for that to be legal.
	group *sim.Shards
	// defaultDom is the domain hosts belong to unless PlaceHost moves them.
	defaultDom sim.DomainID
}

// NewFabric returns a fabric with the given one-way propagation delay.
func NewFabric(eng *sim.Engine, propagation sim.Duration) *Fabric {
	return &Fabric{eng: eng, hosts: make(map[string]*Host), propagation: propagation}
}

// AddHost registers a host with the given NIC rate and stack profile.
func (f *Fabric) AddHost(name string, bitsPerSec float64, stack StackCost) (*Host, error) {
	if _, dup := f.hosts[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate host %q", name)
	}
	h := &Host{Name: name, NIC: NewNIC(f.eng, bitsPerSec), Stack: stack, eng: f.eng, dom: f.defaultDom}
	h.SetStackWorkers(1)
	f.hosts[name] = h
	return h, nil
}

// Shard attaches the fabric to a sharded engine group. Every host —
// already added or added later — defaults to domain dom on the fabric's
// engine; PlaceHost pins individual hosts to other domains. Call during
// single-threaded setup, before the group runs. The fabric's propagation
// delay must be >= the group's lookahead, or cross-domain deliveries
// would violate the conservative bound and panic at runtime.
func (f *Fabric) Shard(group *sim.Shards, dom sim.DomainID) {
	f.group = group
	f.defaultDom = dom
	for _, h := range f.hosts {
		h.dom = dom
	}
}

// PlaceHost pins a host to topology domain dom, whose state lives on eng
// (the engine of the shard the domain is registered on). Setup-time only:
// moving a host once events are in flight would tear its NIC and stack
// state across shards.
func (f *Fabric) PlaceHost(h *Host, dom sim.DomainID, eng *sim.Engine) {
	h.dom = dom
	h.eng = eng
	h.NIC.eng = eng
}

// Host returns the named host, or nil.
func (f *Fabric) Host(name string) *Host { return f.hosts[name] }

// Propagation returns the one-way propagation delay.
func (f *Fabric) Propagation() sim.Duration { return f.propagation }

// Send models a one-way message of n bytes from src to dst and invokes
// onArrive when the receiver has fully processed it. The sender's stack cost
// and wire serialization are charged on src, propagation on the fabric, and
// the receiver's stack cost on dst. Send never blocks the caller.
// A message from a host to itself (co-located daemons) skips the wire and
// propagation and pays only the two stack costs.
func (f *Fabric) Send(src, dst *Host, n int, onArrive func()) {
	now := src.eng.Now()
	if src == dst {
		done := src.reserveStack(now, src.Stack.Cost(n)+dst.Stack.Cost(n))
		src.eng.At(done, onArrive)
		return
	}
	txReady := src.reserveStack(now, src.Stack.Cost(n))
	depart := src.NIC.reserve(txReady, n)
	if f.faultHook != nil && f.faultHook(src, dst, n) {
		// Lost on the wire: the sender paid for the transmission but the
		// message never arrives. Recovery is the caller's problem
		// (deadlines + retry in the client path).
		src.NIC.countDrop()
		return
	}
	atNIC := depart.Add(f.propagation)
	if f.group != nil && src.dom != dst.dom {
		// Cross-domain: the receiver's stack and timer state live on
		// another shard, so hand the arrival to it at the NIC instant.
		// Propagation >= lookahead makes the post legal, and the group's
		// canonical (time, domain, sequence) merge keeps delivery order —
		// and therefore every digest — independent of shard scheduling.
		var d *delivery
		if k := len(src.deliveries); k > 0 {
			d = src.deliveries[k-1]
			src.deliveries[k-1] = nil
			src.deliveries = src.deliveries[:k-1]
		} else {
			d = &delivery{}
			d.fn = d.arrive
		}
		d.dst, d.n, d.onArrive = dst, n, onArrive
		f.group.PostAt(src.dom, dst.dom, atNIC, d.fn)
		return
	}
	arrive := dst.reserveStack(atNIC, dst.Stack.Cost(n))
	dst.eng.At(arrive, onArrive)
}

// SetFaultHook installs (or, with nil, removes) the per-message fault
// decision. The hook runs in engine context in deterministic message order,
// so a seeded random source inside it replays bit-identically.
func (f *Fabric) SetFaultHook(hook func(src, dst *Host, n int) bool) {
	f.faultHook = hook
}

// SendWait is the Proc-blocking form of Send: it returns once the message
// has been processed by the receiver. It is a same-domain primitive: on a
// sharded fabric the arrival callback runs on the receiver's shard, where
// completing the sender's completion would race, so cross-domain callers
// must use Send with an explicit arrival-driven protocol instead.
func (f *Fabric) SendWait(p *sim.Proc, src, dst *Host, n int) {
	if f.group != nil && src.dom != dst.dom {
		panic(fmt.Sprintf("netsim: SendWait %s -> %s crosses topology domains", src.Name, dst.Name))
	}
	done := src.eng.NewCompletion()
	f.Send(src, dst, n, func() { done.Complete(nil, nil) })
	p.Await(done)
}

// RTT estimates a request/response round trip for the given payload sizes
// on an idle network (no queueing): useful for calibration and tests.
func (f *Fabric) RTT(a, b *Host, reqBytes, respBytes int) sim.Duration {
	fwd := a.Stack.Cost(reqBytes) + a.NIC.WireTime(reqBytes) + f.propagation + b.Stack.Cost(reqBytes)
	rev := b.Stack.Cost(respBytes) + b.NIC.WireTime(respBytes) + f.propagation + a.Stack.Cost(respBytes)
	return fwd + rev
}
