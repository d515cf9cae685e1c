package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// This file is the family registry: the one list of the evaluation's
// experiment families. cmd/delibabench prints and reports from it, the
// golden test pins its digests, and the parallelism and probe tests look
// families up in it, so adding a family is one entry here.

// Family is one experiment family: the unit delibabench prints (its -only
// id), reports, and gates.
type Family struct {
	Name string
	// Golden pins the digest of Run(Quick()). Every family whose runs carry
	// a digest has a pin; TestGoldenDigests fails on one that does not.
	Golden uint64
	// Run executes the family at cfg.
	Run func(cfg Config) (Outcome, error)
	// probe is the representative cell FamilyProbe profiles; nil for
	// families without an I/O path of their own.
	probe *familyProbe
}

// Outcome is one run of a family.
type Outcome struct {
	Tables []*metrics.Table
	// Digest folds the run's simulated observables into an FNV-1a hash. It
	// is the oracle for byte-identical results across -parallel settings
	// and is valid only when Digested is set.
	Digest   uint64
	Digested bool
	// Check is the family's acceptance bar at full or quick scale; nil for
	// families without one.
	Check func(full bool) error
}

// adapt turns a typed experiment into a registry runner.
func adapt[R any](exp func(Config) (R, error), outcome func(R) Outcome) func(Config) (Outcome, error) {
	return func(cfg Config) (Outcome, error) {
		r, err := exp(cfg)
		if err != nil {
			return Outcome{}, err
		}
		return outcome(r), nil
	}
}

// pinned is the outcome of a result whose digest pins its behaviour.
func pinned(r interface{ Digest() uint64 }, tabs ...*metrics.Table) Outcome {
	return Outcome{Tables: tabs, Digest: r.Digest(), Digested: true}
}

// unpinned is the outcome of a family without a digest: wall-clock kernel
// profiles and closed-form resource and power models.
func unpinned(tabs ...*metrics.Table) Outcome { return Outcome{Tables: tabs} }

// families is the registry in presentation order.
var families = []Family{
	{Name: "fig3", Golden: 0xf1cd186e901cc445, probe: &familyProbe{spec: "deliba-k-sw", readPct: 100},
		Run: adapt(Fig3, func(r *SWBaselineResult) Outcome { return pinned(r, r.Tables()...) })},
	{Name: "fig4", Golden: 0x688e354555d16a19,
		Run: adapt(Fig4, func(r *SWBaselineResult) Outcome { return pinned(r, r.Tables()...) })},
	{Name: "tab1", Run: func(Config) (Outcome, error) {
		rows, err := Table1()
		return unpinned(Table1Table(rows)), err
	}},
	// fig6 is one sweep behind Figs. 6 and 7 and the abstract's headline;
	// fig8 is the EC sweep behind Figs. 8 and 9.
	{Name: "fig6", Golden: 0xa683eaaee909a60e, probe: &familyProbe{spec: "deliba-k-hw", readPct: 0},
		Run: adapt(Fig6and7, func(r *HWSweepResult) Outcome {
			tabs := append(r.ThroughputTables(), r.IOPSTables()...)
			return pinned(r, append(tabs, Headline(r).Table())...)
		})},
	{Name: "fig8", Golden: 0x4d1d919bec7c3cb6, probe: &familyProbe{spec: "deliba-k-hw+ec", readPct: 0},
		Run: adapt(Fig8and9, func(r *HWSweepResult) Outcome {
			return pinned(r, append(r.ThroughputTables(), r.IOPSTables()...)...)
		})},
	{Name: "tab2", Golden: 0x11ba990aebb78a2f, probe: &familyProbe{spec: "deliba-k-hw", readPct: 100},
		Run: adapt(Table2, func(r *Table2Result) Outcome { return pinned(r, r.Tables()...) })},
	{Name: "tab3", Run: func(Config) (Outcome, error) {
		tabs, err := Table3()
		return unpinned(tabs...), err
	}},
	{Name: "power", Run: func(Config) (Outcome, error) {
		p, err := Power()
		if err != nil {
			return Outcome{}, err
		}
		return unpinned(p.Table()), nil
	}},
	// The OLTP task carries the realworld pin; OLAP runs the same
	// task-pair path with a scan-shaped job.
	{Name: "realworld", Golden: 0xd9b73bd3c0054f3b, probe: &familyProbe{spec: "deliba-k-sw", readPct: 70},
		Run: func(cfg Config) (Outcome, error) {
			olap, err := OLAP(cfg)
			if err != nil {
				return Outcome{}, err
			}
			oltp, err := OLTP(cfg)
			if err != nil {
				return Outcome{}, err
			}
			return pinned(oltp, olap.Table(), oltp.Table()), nil
		}},
	{Name: "ablations", Golden: 0xb91daf403fdc5eda,
		Run: adapt(Ablations, func(rs []*AblationResult) Outcome {
			out := Outcome{Digest: AblationsDigest(rs), Digested: true}
			for _, r := range rs {
				out.Tables = append(out.Tables, r.Table())
			}
			return out
		})},
	{Name: "dfx", Run: func(Config) (Outcome, error) {
		d, err := DFX()
		if err != nil {
			return Outcome{}, err
		}
		return unpinned(d.Table()), nil
	}},
	{Name: "buckets", Golden: 0xb4f1ec737cf3b848, Run: func(Config) (Outcome, error) {
		rows, err := BucketQuality()
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Tables: []*metrics.Table{BucketQualityTable(rows)},
			Digest: BucketQualityDigest(rows), Digested: true}, nil
	}},
	{Name: "recovery", Golden: 0x57c3e961ae11dea2, probe: &familyProbe{spec: "deliba-k-hw", readPct: 70, fault: "loss-1%"},
		Run: adapt(Recovery, func(r *RecoveryResult) Outcome { return pinned(r, r.Table()) })},
	{Name: "mtu", Run: func(Config) (Outcome, error) {
		rows, err := MTU()
		return unpinned(MTUTable(rows)), err
	}},
	{Name: "faults", Golden: 0x3f53b6f4787217e9, probe: &familyProbe{spec: "deliba-k-sw", readPct: 70, fault: "partition"},
		Run: adapt(FaultSweep, func(r *FaultSweepResult) Outcome { return pinned(r, r.Table()) })},
	// scale pins the ScaleSweep digest, which leaves out the engine's own
	// event count.
	{Name: "scale", Golden: 0x952407e211f9a727,
		Run: adapt(ScaleSweep, func(r *ScaleSweepResult) Outcome { return pinned(r, r.Table()) })},
	{Name: "cache", Golden: 0x5a032f832c61c1b5, probe: &familyProbe{spec: "deliba-k-hw+cache-lsvd", readPct: 50},
		Run: adapt(CacheSweep, func(r *CacheSweepResult) Outcome {
			out := pinned(r, r.Table(), r.AdmissionTable(), r.RecoveryTable())
			out.Check = r.Check
			return out
		})},
	// raft probes the head-to-head's stressed cell: the Raft backend on its
	// 3-node topology under the node partition.
	{Name: "raft", Golden: 0xaa60cef72f683118, probe: &familyProbe{spec: "deliba-k-hw+repl-raft", readPct: 30, fault: "partition"},
		Run: adapt(RaftSweep, func(r *RaftSweepResult) Outcome {
			out := pinned(r, r.Table())
			out.Check = r.Check
			return out
		})},
	{Name: "tenant", Golden: 0xa354fe086345abc5,
		Run: adapt(TenantSweep, func(r *TenantSweepResult) Outcome {
			out := pinned(r, r.Table(), r.FleetTable())
			out.Check = r.Check
			return out
		})},
	// trace pins the encoded trace file at the default sampling rate.
	{Name: "trace", Golden: 0xe7f7317206691d94,
		Run: func(cfg Config) (Outcome, error) {
			r, err := TraceSweep(cfg, DefaultTraceSample)
			if err != nil {
				return Outcome{}, err
			}
			return pinned(r, r.Table()), nil
		}},
}

// Families returns the registry in presentation order.
func Families() []Family { return families }

// LookupFamily returns the named family.
func LookupFamily(name string) (Family, error) {
	for _, f := range families {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("experiments: unknown family %q", name)
}
