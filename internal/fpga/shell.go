package fpga

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/sim"
)

// CMACClockHz is the 100G CMAC block's clock in DeLiBA-K (paper §IV-D).
const CMACClockHz = 260e6

// Packet length limits of the DeLiBA-K datapath (paper §IV-B).
const (
	MaxPacketStandard = 1518
	MaxPacketJumbo    = 9018
)

// InfraUsage is the resource cost of the always-present infrastructure
// (QDMA + CMAC + RTL TCP/IP), charged to the static region alongside the
// kernels (Table III folds it into the kernel rows; the shell keeps it
// explicit so per-kernel numbers stay the table's).
var InfraUsage = Resources{LUTs: 110_000, Registers: 190_000, BRAM: 160, URAM: 32, DSP: 0}

// InfraWatts is the infrastructure + static power floor, calibrated so a
// full static build reproduces the paper's 195 W and the DFX build 170 W.
const InfraWatts = 100.0

// Shell is the full DeLiBA-K FPGA design: static region (QDMA, CMAC, RTL
// TCP/IP, Straw, Straw2, RS encoder across SLR1+SLR2) plus one RP in SLR0
// holding the Uniform/List/Tree replication accelerators as RMs.
type Shell struct {
	Dev *Device
	eng *sim.Engine

	// Static accelerators.
	Straw  *CrushAccel
	Straw2 *CrushAccel
	RS     *RSAccel
	// RP hosts the three swap-in replication accelerators.
	RP *RP
	// dynAccels lazily instantiates FSMs for RMs as they go live.
	dynAccels map[KernelID]*CrushAccel

	crushMap *crush.Map
	rule     *crush.Rule

	// UseDFX records whether the dynamic kernels live in the RP (true) or
	// were frozen into the static region (the pre-DeLiBA-K arrangement the
	// power ablation compares against).
	UseDFX bool
}

// ShellConfig selects the design variant.
type ShellConfig struct {
	// Map and Rule drive the CRUSH accelerators.
	Map  *crush.Map
	Rule *crush.Rule
	// Code is the EC geometry for the RS encoder.
	Code *erasure.Code
	// StaticOnly builds all six kernels into the static region (no DFX),
	// the arrangement DeLiBA-2 used and the power ablation's baseline.
	StaticOnly bool
}

// BuildShell places the DeLiBA-K design onto a fresh U280.
func BuildShell(eng *sim.Engine, cfg ShellConfig) (*Shell, error) {
	if cfg.Map == nil || cfg.Rule == nil {
		return nil, fmt.Errorf("fpga: shell needs a CRUSH map and rule")
	}
	dev := NewU280()
	s := &Shell{
		Dev:       dev,
		eng:       eng,
		crushMap:  cfg.Map,
		rule:      cfg.Rule,
		dynAccels: make(map[KernelID]*CrushAccel),
		UseDFX:    !cfg.StaticOnly,
	}
	// Infrastructure spans the static SLRs.
	if err := dev.Place("infra", 1, InfraUsage); err != nil {
		return nil, err
	}
	// Static kernels: Straw and RS in SLR1, Straw2 in SLR2 (spanning two
	// SLRs as the paper describes).
	place := func(name string, slr int, id KernelID) error {
		return dev.Place(name, slr, KernelTable[id].Usage)
	}
	if err := place("straw", 1, KStraw); err != nil {
		return nil, err
	}
	if err := place("straw2", 2, KStraw2); err != nil {
		return nil, err
	}
	if err := place("rs-encoder", 2, KRSEncoder); err != nil {
		return nil, err
	}
	s.Straw = NewCrushAccel(eng, KStraw, cfg.Map, cfg.Rule)
	s.Straw2 = NewCrushAccel(eng, KStraw2, cfg.Map, cfg.Rule)
	if cfg.Code != nil {
		s.RS = NewRSAccel(eng, cfg.Code)
	}

	if cfg.StaticOnly {
		// Freeze the three dynamic kernels into static SLR0.
		for _, id := range []KernelID{KUniform, KList, KTree} {
			if err := dev.Place(id.String(), 0, KernelTable[id].Usage); err != nil {
				return nil, err
			}
			s.dynAccels[id] = NewCrushAccel(eng, id, cfg.Map, cfg.Rule)
		}
		return s, nil
	}

	// DFX: one RP in SLR0 sized to the largest RM with floorplan margin.
	budget := Resources{LUTs: 80_000, Registers: 160_000, BRAM: 120, URAM: 40, DSP: 64}
	rp, err := NewRP(eng, dev, "repl-accels", 0, budget)
	if err != nil {
		return nil, err
	}
	s.RP = rp
	for _, id := range []KernelID{KUniform, KList, KTree} {
		if err := rp.AddRM(&RM{Name: id.String(), Kernel: id, Usage: KernelTable[id].Usage}); err != nil {
			return nil, err
		}
	}
	// Verify all three configurations like the paper does with pr_verify.
	var configs []Configuration
	for _, name := range rp.RMs() {
		configs = append(configs, Configuration{RP: rp, RM: name})
	}
	if err := PrVerify(configs); err != nil {
		return nil, err
	}
	return s, nil
}

// ActiveKernels lists the kernels currently consuming power.
func (s *Shell) ActiveKernels() []KernelID {
	ks := []KernelID{KStraw, KStraw2}
	if s.RS != nil {
		ks = append(ks, KRSEncoder)
	}
	if s.UseDFX {
		if s.RP != nil {
			if rm := s.RP.Active(); rm != nil {
				ks = append(ks, rm.Kernel)
			}
		}
		return ks
	}
	for id := range s.dynAccels {
		ks = append(ks, id)
	}
	return ks
}

// Power returns the card's modelled draw in watts.
func (s *Shell) Power() float64 {
	w := InfraWatts
	for _, k := range s.ActiveKernels() {
		w += KernelTable[k].Watts
	}
	return w
}

// DynAccel returns the accelerator for a dynamic kernel. With DFX, the
// kernel must be the live RM; without DFX all three are always available.
func (s *Shell) DynAccel(id KernelID) (*CrushAccel, error) {
	if !s.UseDFX {
		if a, ok := s.dynAccels[id]; ok {
			return a, nil
		}
		return nil, fmt.Errorf("fpga: kernel %v not in static build", id)
	}
	rm := s.RP.Active()
	if rm == nil {
		return nil, ErrReconfiguring
	}
	if rm.Kernel != id {
		return nil, fmt.Errorf("fpga: kernel %v not loaded (live: %v)", id, rm.Kernel)
	}
	a, ok := s.dynAccels[id]
	if !ok {
		a = NewCrushAccel(s.eng, id, s.crushMap, s.rule)
		s.dynAccels[id] = a
	}
	return a, nil
}

// LoadDynKernel swaps the RP to the given kernel and calls done once it is
// live (DFX builds only). A static build has every kernel resident, so done
// runs before LoadDynKernel returns.
func (s *Shell) LoadDynKernel(id KernelID, done func(err error)) {
	if !s.UseDFX {
		done(nil)
		return
	}
	s.RP.Reconfigure(id.String(), done)
}
