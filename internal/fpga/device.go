// Package fpga models the AMD Alveo U280 data-center card as DeLiBA-K uses
// it: three super logic regions (SLRs) with per-region resource inventories,
// full and partial bitstreams, DFX-based partial reconfiguration through
// MCAP, the Verilog accelerator kernels of Table I (CRUSH bucket selection
// and Reed-Solomon encoding) with their measured cycle counts, and the
// card-level power model.
//
// The kernels are functional: they run the same internal/crush and
// internal/erasure code as the software path, so hardware and software
// produce identical placements and parities — only the charged virtual time
// differs.
package fpga

import "fmt"

// Resources is an FPGA resource vector.
type Resources struct {
	LUTs      int
	Registers int
	BRAM      int // 36 Kb block RAM tiles
	URAM      int
	DSP       int
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		LUTs:      r.LUTs + o.LUTs,
		Registers: r.Registers + o.Registers,
		BRAM:      r.BRAM + o.BRAM,
		URAM:      r.URAM + o.URAM,
		DSP:       r.DSP + o.DSP,
	}
}

// FitsIn reports whether r fits within budget.
func (r Resources) FitsIn(budget Resources) bool {
	return r.LUTs <= budget.LUTs &&
		r.Registers <= budget.Registers &&
		r.BRAM <= budget.BRAM &&
		r.URAM <= budget.URAM &&
		r.DSP <= budget.DSP
}

// Utilization returns r as a percentage of budget per resource class.
func (r Resources) Utilization(budget Resources) map[string]float64 {
	pct := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	return map[string]float64{
		"LUT":  pct(r.LUTs, budget.LUTs),
		"FF":   pct(r.Registers, budget.Registers),
		"BRAM": pct(r.BRAM, budget.BRAM),
		"URAM": pct(r.URAM, budget.URAM),
		"DSP":  pct(r.DSP, budget.DSP),
	}
}

func (r Resources) String() string {
	return fmt.Sprintf("LUT=%d FF=%d BRAM=%d URAM=%d DSP=%d",
		r.LUTs, r.Registers, r.BRAM, r.URAM, r.DSP)
}

// SLR is one super logic region (a silicon die slice of the SSI device).
type SLR struct {
	ID    int
	Total Resources
	used  Resources
}

// Used returns resources currently placed in the SLR.
func (s *SLR) Used() Resources { return s.used }

// Free returns remaining headroom.
func (s *SLR) Free() Resources {
	return Resources{
		LUTs:      s.Total.LUTs - s.used.LUTs,
		Registers: s.Total.Registers - s.used.Registers,
		BRAM:      s.Total.BRAM - s.used.BRAM,
		URAM:      s.Total.URAM - s.used.URAM,
		DSP:       s.Total.DSP - s.used.DSP,
	}
}

// Place reserves r in the SLR.
func (s *SLR) Place(r Resources) error {
	if !r.FitsIn(s.Free()) {
		return fmt.Errorf("fpga: %v does not fit in SLR%d free %v", r, s.ID, s.Free())
	}
	s.used = s.used.Add(r)
	return nil
}

// Release returns previously placed resources.
func (s *SLR) Release(r Resources) {
	s.used.LUTs -= r.LUTs
	s.used.Registers -= r.Registers
	s.used.BRAM -= r.BRAM
	s.used.URAM -= r.URAM
	s.used.DSP -= r.DSP
}

// Device is the FPGA card.
type Device struct {
	Name string
	SLRs []*SLR
	// Placements records what was placed where, by name.
	placements map[string]placement
}

type placement struct {
	slr int
	res Resources
}

// U280 chip-level inventory (paper §V-c): 1.3M LUTs, 2.72M registers,
// 9024 DSPs, 2016 BRAMs, 960 URAMs across three SLRs. SLR0's inventory is
// given explicitly in the paper; the remainder splits across SLR1/2.
var (
	u280SLR0 = Resources{LUTs: 355_000, Registers: 725_000, BRAM: 490, URAM: 320, DSP: 2733}
	u280SLR1 = Resources{LUTs: 472_500, Registers: 997_500, BRAM: 763, URAM: 320, DSP: 3145}
	u280SLR2 = Resources{LUTs: 472_500, Registers: 997_500, BRAM: 763, URAM: 320, DSP: 3146}
)

// NewU280 returns an empty XCU280-L2FSVH2892E device model.
func NewU280() *Device {
	return &Device{
		Name: "xcu280-l2fsvh2892e",
		SLRs: []*SLR{
			{ID: 0, Total: u280SLR0},
			{ID: 1, Total: u280SLR1},
			{ID: 2, Total: u280SLR2},
		},
		placements: make(map[string]placement),
	}
}

// TotalResources sums all SLRs.
func (d *Device) TotalResources() Resources {
	var t Resources
	for _, s := range d.SLRs {
		t = t.Add(s.Total)
	}
	return t
}

// Place puts a named block into an SLR.
func (d *Device) Place(name string, slr int, r Resources) error {
	if slr < 0 || slr >= len(d.SLRs) {
		return fmt.Errorf("fpga: no SLR %d", slr)
	}
	if _, dup := d.placements[name]; dup {
		return fmt.Errorf("fpga: %q already placed", name)
	}
	if err := d.SLRs[slr].Place(r); err != nil {
		return err
	}
	d.placements[name] = placement{slr: slr, res: r}
	return nil
}

// Remove releases a named block.
func (d *Device) Remove(name string) error {
	pl, ok := d.placements[name]
	if !ok {
		return fmt.Errorf("fpga: %q not placed", name)
	}
	d.SLRs[pl.slr].Release(pl.res)
	delete(d.placements, name)
	return nil
}

// Placed reports whether a named block is resident.
func (d *Device) Placed(name string) bool {
	_, ok := d.placements[name]
	return ok
}

// PlacedIn returns the SLR a block occupies (-1 if absent).
func (d *Device) PlacedIn(name string) int {
	if pl, ok := d.placements[name]; ok {
		return pl.slr
	}
	return -1
}
