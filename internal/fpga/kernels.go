package fpga

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/sim"
)

// KernelID names one of the six RTL accelerator kernels of Table I.
type KernelID int

const (
	// KStraw is the CRUSH straw-bucket selection kernel.
	KStraw KernelID = iota
	// KStraw2 is the straw2-bucket kernel.
	KStraw2
	// KList is the list-bucket kernel.
	KList
	// KTree is the tree-bucket kernel.
	KTree
	// KUniform is the uniform-bucket kernel.
	KUniform
	// KRSEncoder is the Reed-Solomon erasure encoder.
	KRSEncoder
)

func (k KernelID) String() string {
	switch k {
	case KStraw:
		return "straw"
	case KStraw2:
		return "straw2"
	case KList:
		return "list"
	case KTree:
		return "tree"
	case KUniform:
		return "uniform"
	case KRSEncoder:
		return "rs-encoder"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// AccelClockHz is the replication/EC accelerator clock (paper §IV-B).
const AccelClockHz = 235e6

// KernelSpec captures one row of Table I plus the kernel's Table III
// resource usage and power share.
type KernelSpec struct {
	ID   KernelID
	Name string
	// SWExecTime is the profiled software execution time in the
	// Ceph-kernel client (Table I column 2).
	SWExecTime sim.Duration
	// SWRuntimeShare is the kernel's share of total client runtime
	// (column 3).
	SWRuntimeShare float64
	// RTLCyclesMin/Max bound the Verilog FSM cycle count (column 4).
	RTLCyclesMin, RTLCyclesMax int
	// VivadoLatencyMin/Max bound the post-synthesis latency estimate
	// (column 5).
	VivadoLatencyMin, VivadoLatencyMax sim.Duration
	// HWExecTime is the measured end-to-end execution on the physical
	// U280, including data movement (column 6).
	HWExecTime sim.Duration
	// SLOCsC and SLOCsVerilog are the source sizes (columns 7-8).
	SLOCsC, SLOCsVerilog int
	// Usage is the place-and-route resource footprint (Table III).
	Usage Resources
	// Watts is the kernel's dynamic power share (calibrated so full
	// load reproduces the paper's 195 W / 170 W figures).
	Watts float64
}

// PipelineLatency is the kernel's per-operation compute latency at the
// accelerator clock (the Vivado cycle count, which matches column 5).
func (s KernelSpec) PipelineLatency() sim.Duration {
	return sim.Duration(float64(s.RTLCyclesMax) / AccelClockHz * 1e9)
}

func usFrac(us float64) sim.Duration { return sim.Duration(us * 1000) }

// KernelTable reproduces Table I / Table III of the paper.
var KernelTable = map[KernelID]KernelSpec{
	KStraw: {
		ID: KStraw, Name: "Straw Bucket",
		SWExecTime: 55 * sim.Microsecond, SWRuntimeShare: 0.80,
		RTLCyclesMin: 105, RTLCyclesMax: 105,
		VivadoLatencyMin: usFrac(0.345), VivadoLatencyMax: usFrac(0.355),
		HWExecTime: 49 * sim.Microsecond,
		SLOCsC:     256, SLOCsVerilog: 880,
		Usage: Resources{LUTs: 78_555, Registers: 224_000, BRAM: 190, URAM: 26},
		Watts: 20.0,
	},
	KStraw2: {
		ID: KStraw2, Name: "Straw2 Bucket",
		SWExecTime: 48 * sim.Microsecond, SWRuntimeShare: 0.80,
		RTLCyclesMin: 155, RTLCyclesMax: 155,
		VivadoLatencyMin: usFrac(0.315), VivadoLatencyMax: usFrac(0.315),
		HWExecTime: 51 * sim.Microsecond,
		SLOCsC:     256, SLOCsVerilog: 806,
		Usage: Resources{LUTs: 82_334, Registers: 313_000, BRAM: 165, URAM: 35},
		Watts: 20.0,
	},
	KList: {
		ID: KList, Name: "List Bucket",
		SWExecTime: 35 * sim.Microsecond, SWRuntimeShare: 0.80,
		RTLCyclesMin: 40, RTLCyclesMax: 40,
		VivadoLatencyMin: usFrac(0.161), VivadoLatencyMax: usFrac(0.161),
		HWExecTime: 56 * sim.Microsecond,
		SLOCsC:     197, SLOCsVerilog: 770,
		Usage: Resources{LUTs: 52_335, Registers: 92_456, BRAM: 85, URAM: 22},
		Watts: 12.5,
	},
	KTree: {
		ID: KTree, Name: "Tree Bucket",
		SWExecTime: 22 * sim.Microsecond, SWRuntimeShare: 0.85,
		RTLCyclesMin: 130, RTLCyclesMax: 130,
		VivadoLatencyMin: usFrac(0.115), VivadoLatencyMax: usFrac(0.115),
		HWExecTime: 31 * sim.Microsecond,
		SLOCsC:     241, SLOCsVerilog: 780,
		Usage: Resources{LUTs: 56_556, Registers: 97_523, BRAM: 82, URAM: 26},
		Watts: 12.5,
	},
	KUniform: {
		ID: KUniform, Name: "Uniform Bucket",
		SWExecTime: 9 * sim.Microsecond, SWRuntimeShare: 0.72,
		RTLCyclesMin: 40, RTLCyclesMax: 50,
		VivadoLatencyMin: usFrac(0.180), VivadoLatencyMax: usFrac(0.180),
		HWExecTime: 19 * sim.Microsecond,
		SLOCsC:     237, SLOCsVerilog: 745,
		Usage: Resources{LUTs: 62_456, Registers: 112_000, BRAM: 78, URAM: 29},
		Watts: 12.5,
	},
	KRSEncoder: {
		ID: KRSEncoder, Name: "Reed-Solomon Encoder",
		SWExecTime: 65 * sim.Microsecond, SWRuntimeShare: 0.70,
		RTLCyclesMin: 150, RTLCyclesMax: 150,
		VivadoLatencyMin: usFrac(0.345), VivadoLatencyMax: usFrac(0.345),
		HWExecTime: 85 * sim.Microsecond,
		SLOCsC:     280, SLOCsVerilog: 960,
		Usage: Resources{LUTs: 92_355, Registers: 582_000, BRAM: 215, URAM: 52},
		Watts: 17.5,
	},
}

// Accel is a resident accelerator instance: an FSM that services one
// operation at a time (the deterministic Verilog design of §IV-B), with
// FIFO queueing on its AXI-stream input.
type Accel struct {
	Spec KernelSpec
	eng  *sim.Engine
	// fsm serializes the operations.
	fsm sim.Server
	ops uint64
}

// NewAccel instantiates a kernel.
func NewAccel(eng *sim.Engine, id KernelID) *Accel {
	spec, ok := KernelTable[id]
	if !ok {
		panic(fmt.Sprintf("fpga: unknown kernel %v", id))
	}
	return &Accel{Spec: spec, eng: eng}
}

// Ops returns completed operations.
func (a *Accel) Ops() uint64 { return a.ops }

// BusyTime returns cumulative FSM-busy time.
func (a *Accel) BusyTime() sim.Duration { return a.fsm.Busy() }

// run schedules one FSM occupancy of the given service time and calls
// retire when it ends; retire counts the operation (see retired).
func (a *Accel) run(service sim.Duration, retire func()) {
	a.eng.At(a.fsm.Book(a.eng.Now(), service), retire)
}

// retired counts one operation the FSM finished.
func (a *Accel) retired() { a.ops++ }

// streamCycles is the cycle count to stream n payload bytes through the
// 256-bit (32 B/cycle) AXI datapath.
func streamCycles(n int) int {
	return (n + 31) / 32
}

// CrushAccel is a CRUSH placement kernel bound to a cluster map. It
// computes placements with the same crush.Map the host uses, in
// RTLCyclesMax per selection step.
//
// The kernel's service time depends only on the replica count, so the
// simulator need not redo the straw2 descent for every I/O: answers come
// from a placement memo owned by the kernel (and so by the card's shard),
// filled on first use of each PG. The map is fixed once built and the
// kernel sees no reweight table, so an entry never goes stale.
type CrushAccel struct {
	*Accel
	Map  *crush.Map
	Rule *crush.Rule
	memo *crush.Memo
	free []*selectJob
}

// selectJob is one Select in the FSM, pooled on its kernel with the retire
// step bound once.
type selectJob struct {
	c        *CrushAccel
	pg, pool uint32
	numRep   int
	done     func(osds []int, err error)
	retire   func()
}

func (j *selectJob) retired() {
	c := j.c
	c.Accel.retired()
	osds, err := c.memo.Select(c.Rule, j.pool, j.pg, j.numRep, nil, 0)
	done := j.done
	j.done = nil
	c.free = append(c.free, j)
	done(osds, err)
}

// NewCrushAccel builds a placement accelerator for the given map and rule.
func NewCrushAccel(eng *sim.Engine, id KernelID, m *crush.Map, rule *crush.Rule) *CrushAccel {
	return &CrushAccel{Accel: NewAccel(eng, id), Map: m, Rule: rule, memo: crush.NewMemo(m)}
}

// Select computes numRep placement targets for placement group pg of pool
// and delivers them to done after the kernel's pipeline time (one FSM pass
// per replica). The kernel hashes (pg, pool) into the CRUSH input exactly
// as the host's rados.Cluster.ActingSet does, and sees no reweight table,
// like a card given the map without the monitor's in/out state. osds is
// shared with the kernel's memo: treat it as read-only.
func (c *CrushAccel) Select(pg, pool uint32, numRep int, done func(osds []int, err error)) {
	var j *selectJob
	if k := len(c.free); k > 0 {
		j = c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
	} else {
		j = &selectJob{c: c}
		j.retire = j.retired
	}
	j.pg, j.pool, j.numRep, j.done = pg, pool, numRep, done
	c.run(sim.Duration(numRep)*c.Spec.PipelineLatency(), j.retire)
}

// RSAccel is the Reed-Solomon encoder kernel.
type RSAccel struct {
	*Accel
	Code *erasure.Code
	free []*encodeJob
}

// encodeJob is one Encode in the FSM, pooled like selectJob.
type encodeJob struct {
	r      *RSAccel
	shards [][]byte
	done   func(err error)
	retire func()
}

func (j *encodeJob) retired() {
	r := j.r
	r.Accel.retired()
	var err error
	if j.shards != nil {
		err = r.Code.Encode(j.shards)
	}
	done := j.done
	j.shards, j.done = nil, nil
	r.free = append(r.free, j)
	done(err)
}

// NewRSAccel builds an encoder for the given code geometry.
func NewRSAccel(eng *sim.Engine, code *erasure.Code) *RSAccel {
	return &RSAccel{Accel: NewAccel(eng, KRSEncoder), Code: code}
}

// EncodeTime returns the kernel service time for n payload bytes: the FSM
// setup cycles plus streaming the payload once through the datapath.
func (r *RSAccel) EncodeTime(n int) sim.Duration {
	cycles := r.Spec.RTLCyclesMax + streamCycles(n)
	return sim.Duration(float64(cycles) / AccelClockHz * 1e9)
}

// Encode computes parity for the shards (shards[0:k] in, shards[k:] out) and
// calls done when the FSM retires. When shards is nil the kernel charges
// time only (benchmark mode).
func (r *RSAccel) Encode(n int, shards [][]byte, done func(err error)) {
	var j *encodeJob
	if k := len(r.free); k > 0 {
		j = r.free[k-1]
		r.free[k-1] = nil
		r.free = r.free[:k-1]
	} else {
		j = &encodeJob{r: r}
		j.retire = j.retired
	}
	j.shards, j.done = shards, done
	r.run(r.EncodeTime(n), j.retire)
}
