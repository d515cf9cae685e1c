package fpga

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// DFX (Dynamic Function eXchange) model: a reconfigurable partition (RP)
// placed in one SLR hosts exactly one reconfigurable module (RM) at a time;
// swapping RMs streams a partial bitstream through the MCAP while the
// static region keeps serving.

// MCAPBytesPerSec is the partial-reconfiguration bandwidth through the PCIe
// media configuration access port (fast PR per XAPP1338).
const MCAPBytesPerSec = 400e6

// RM is a reconfigurable module: one netlist implementable inside an RP.
type RM struct {
	Name string
	// Kernel is the accelerator this module implements.
	Kernel KernelID
	// Usage is the module's resource footprint (Table III, RM rows).
	Usage Resources
	// PartialBitstreamBytes is the size of the module's partial BIT file.
	PartialBitstreamBytes int
}

// RP is a reconfigurable partition: a floorplanned region (Pblock) inside
// one SLR with a fixed resource budget.
type RP struct {
	Name   string
	SLR    int
	Budget Resources

	dev  *Device
	eng  *sim.Engine
	rms  map[string]*RM
	live *RM
	// reconfiguring is non-nil while a partial bitstream is streaming.
	reconfiguring *RM
	reconfigs     uint64
	reconfigTime  sim.Duration
}

// Errors.
var (
	ErrReconfiguring = errors.New("fpga: partition is reconfiguring")
	ErrNoSuchRM      = errors.New("fpga: unknown reconfigurable module")
)

// NewRP floorplans a partition into an SLR of the device, reserving its
// full budget in the static placement (the Pblock is carved out once).
func NewRP(eng *sim.Engine, dev *Device, name string, slr int, budget Resources) (*RP, error) {
	if err := dev.Place("rp:"+name, slr, budget); err != nil {
		return nil, err
	}
	return &RP{
		Name:   name,
		SLR:    slr,
		Budget: budget,
		dev:    dev,
		eng:    eng,
		rms:    make(map[string]*RM),
	}, nil
}

// AddRM registers a module implementation for this partition. The module
// must fit the partition budget (bottom-up synthesis then Pblock fitting).
func (rp *RP) AddRM(rm *RM) error {
	if !rm.Usage.FitsIn(rp.Budget) {
		return fmt.Errorf("fpga: RM %q (%v) exceeds RP %q budget (%v)",
			rm.Name, rm.Usage, rp.Name, rp.Budget)
	}
	if _, dup := rp.rms[rm.Name]; dup {
		return fmt.Errorf("fpga: duplicate RM %q", rm.Name)
	}
	if rm.PartialBitstreamBytes == 0 {
		// Size scales with the partition fabric, not the module logic: a
		// partial bitstream covers the whole Pblock frame set.
		rm.PartialBitstreamBytes = rp.Budget.LUTs * 80
	}
	rp.rms[rm.Name] = rm
	return nil
}

// RMs returns the registered module names.
func (rp *RP) RMs() []string {
	names := make([]string, 0, len(rp.rms))
	for n := range rp.rms {
		names = append(names, n)
	}
	return names
}

// Active returns the currently live module (nil if none or while
// reconfiguring).
func (rp *RP) Active() *RM {
	if rp.reconfiguring != nil {
		return nil
	}
	return rp.live
}

// Reconfiguring reports whether a swap is in progress.
func (rp *RP) Reconfiguring() bool { return rp.reconfiguring != nil }

// Reconfigs returns the number of completed swaps.
func (rp *RP) Reconfigs() uint64 { return rp.reconfigs }

// TotalReconfigTime returns cumulative time spent reconfiguring.
func (rp *RP) TotalReconfigTime() sim.Duration { return rp.reconfigTime }

// ReconfigDuration returns how long loading the named RM takes.
func (rp *RP) ReconfigDuration(name string) (sim.Duration, error) {
	rm, ok := rp.rms[name]
	if !ok {
		return 0, ErrNoSuchRM
	}
	return sim.Duration(float64(rm.PartialBitstreamBytes) / MCAPBytesPerSec * 1e9), nil
}

// Reconfigure streams the named RM's partial bitstream through MCAP. While
// it runs the partition is unavailable (Active() == nil); the static region
// is unaffected. done fires when the new module is live. Loading the module
// that is already live completes immediately.
func (rp *RP) Reconfigure(name string, done func(err error)) {
	rm, ok := rp.rms[name]
	if !ok {
		rp.eng.Schedule(0, func() { done(ErrNoSuchRM) })
		return
	}
	if rp.reconfiguring != nil {
		rp.eng.Schedule(0, func() { done(ErrReconfiguring) })
		return
	}
	if rp.live == rm {
		rp.eng.Schedule(0, func() { done(nil) })
		return
	}
	d, _ := rp.ReconfigDuration(name)
	rp.reconfiguring = rm
	rp.eng.Schedule(d, func() {
		rp.live = rm
		rp.reconfiguring = nil
		rp.reconfigs++
		rp.reconfigTime += d
		done(nil)
	})
}

// Configuration pairs a partition with one RM per the DFX flow: each
// configuration produces one full bitstream plus one partial per RM.
type Configuration struct {
	RP *RP
	RM string
}

// PrVerify performs the checks of Vivado's pr_verify across a set of
// configurations: every referenced RM exists, fits its partition budget,
// and all configurations of a partition agree on the partition's SLR and
// budget (static-side consistency, so super long lines stay static).
func PrVerify(configs []Configuration) error {
	seen := make(map[*RP]Resources)
	for i, c := range configs {
		if c.RP == nil {
			return fmt.Errorf("fpga: pr_verify config %d: nil partition", i)
		}
		rm, ok := c.RP.rms[c.RM]
		if !ok {
			return fmt.Errorf("fpga: pr_verify config %d: RM %q not registered in RP %q",
				i, c.RM, c.RP.Name)
		}
		if !rm.Usage.FitsIn(c.RP.Budget) {
			return fmt.Errorf("fpga: pr_verify config %d: RM %q exceeds budget", i, c.RM)
		}
		if prev, ok := seen[c.RP]; ok {
			if prev != c.RP.Budget {
				return fmt.Errorf("fpga: pr_verify: RP %q budget changed between configurations", c.RP.Name)
			}
		}
		seen[c.RP] = c.RP.Budget
	}
	return nil
}

// ConfigAnalysisRow is one row of the DFX Configuration Analysis report.
type ConfigAnalysisRow struct {
	RM       string
	Kernel   KernelID
	Usage    Resources
	UtilPct  map[string]float64
	BitBytes int
	LoadTime sim.Duration
}

// ConfigurationAnalysis reports per-RM resource usage and load time, like
// Vivado's DFX Configuration Analysis.
func (rp *RP) ConfigurationAnalysis() []ConfigAnalysisRow {
	rows := make([]ConfigAnalysisRow, 0, len(rp.rms))
	for _, name := range rp.sortedRMNames() {
		rm := rp.rms[name]
		d, _ := rp.ReconfigDuration(name)
		rows = append(rows, ConfigAnalysisRow{
			RM:       name,
			Kernel:   rm.Kernel,
			Usage:    rm.Usage,
			UtilPct:  rm.Usage.Utilization(rp.dev.SLRs[rp.SLR].Total),
			BitBytes: rm.PartialBitstreamBytes,
			LoadTime: d,
		})
	}
	return rows
}

func (rp *RP) sortedRMNames() []string {
	names := rp.RMs()
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
