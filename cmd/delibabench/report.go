package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// report is the -report artifact, schema delibabench/report-v1.
type report struct {
	Schema   string         `json:"schema"`
	Scale    string         `json:"scale"` // "quick" or "full"
	Host     reportHost     `json:"host"`
	Families []familyReport `json:"families"`
}

type reportHost struct {
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
}

type familyReport struct {
	Name string `json:"name"`
	// WallMs is the wall-clock of each run, keyed by the run's leg.
	WallMs map[string]float64 `json:"wall_ms"`
	// Digest is absent for families whose runs carry no digest.
	Digest *digestReport                  `json:"digest,omitempty"`
	Check  *checkReport                   `json:"check,omitempty"`
	Tables []*metrics.Table               `json:"tables"`
	Probe  *experiments.FamilyProbeResult `json:"probe,omitempty"`
}

type digestReport struct {
	Serial   string `json:"serial"`
	Parallel string `json:"parallel"`
	Equal    bool   `json:"equal"`
	// Golden is the family's pin; it applies at quick scale only.
	Golden string `json:"golden,omitempty"`
}

type checkReport struct {
	Passed  bool   `json:"passed"`
	Message string `json:"message,omitempty"`
}

// leg is one of the two runs every family gets in the report.
type leg struct {
	name    string
	workers int
}

// writeReport runs each family serially and at the configured parallelism,
// writes the report to path, and fails if any family's digests differ or
// miss their pin, or its check fails.
func writeReport(path string, cfg experiments.Config, fams []experiments.Family) error {
	quick := cfg == experiments.Quick()
	rep := report{
		Schema: "delibabench/report-v1",
		Scale:  "full",
		Host: reportHost{
			GoVersion:   runtime.Version(),
			CPUs:        runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Parallelism: experiments.Parallelism(),
		},
	}
	if quick {
		rep.Scale = "quick"
	}
	legs := []leg{{"serial", 1}, {"parallel", rep.Host.Parallelism}}
	var failures []error
	for _, fam := range fams {
		fr := familyReport{Name: fam.Name, WallMs: map[string]float64{}}
		var outs []experiments.Outcome
		for _, l := range legs {
			out, wall, err := timedRun(fam, cfg, l)
			if err != nil {
				return fmt.Errorf("%s (%s): %w", fam.Name, l.name, err)
			}
			fr.WallMs[l.name] = float64(wall.Microseconds()) / 1e3
			outs = append(outs, out)
		}
		fr.Tables = outs[0].Tables
		if outs[0].Digested {
			d := &digestReport{
				Serial:   fmt.Sprintf("%016x", outs[0].Digest),
				Parallel: fmt.Sprintf("%016x", outs[1].Digest),
				Equal:    outs[0].Digest == outs[1].Digest,
			}
			if !d.Equal {
				failures = append(failures, fmt.Errorf("%s: digests differ: serial %s, parallel %s",
					fam.Name, d.Serial, d.Parallel))
			}
			if quick {
				d.Golden = fmt.Sprintf("%016x", fam.Golden)
				if outs[0].Digest != fam.Golden {
					failures = append(failures, fmt.Errorf("%s: digest %s != golden %s", fam.Name, d.Serial, d.Golden))
				}
			}
			fr.Digest = d
		}
		if outs[0].Check != nil {
			fr.Check = &checkReport{Passed: true}
			if err := outs[0].Check(!quick); err != nil {
				fr.Check = &checkReport{Message: err.Error()}
				failures = append(failures, err)
			}
		}
		probe, err := experiments.FamilyProbe(cfg, fam.Name)
		if err != nil {
			return fmt.Errorf("%s probe: %w", fam.Name, err)
		}
		if len(probe.Stages) > 0 {
			fr.Probe = &probe
		}
		fmt.Printf("%-10s serial %9.1f ms  parallel %9.1f ms%s\n", fam.Name,
			fr.WallMs["serial"], fr.WallMs["parallel"], summary(fr))
		rep.Families = append(rep.Families, fr)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("delibabench: wrote %s (%s scale, %d families)\n", path, rep.Scale, len(rep.Families))
	return errors.Join(failures...)
}

// timedRun runs one family leg, restoring the runner's worker count
// afterwards.
func timedRun(fam experiments.Family, cfg experiments.Config, l leg) (experiments.Outcome, time.Duration, error) {
	defer experiments.SetParallelism(experiments.SetParallelism(l.workers))
	start := time.Now()
	out, err := fam.Run(cfg)
	return out, time.Since(start), err
}

// summary renders a family's digest and check verdict for the progress line.
func summary(fr familyReport) string {
	s := ""
	if d := fr.Digest; d != nil {
		s += "  digest " + d.Serial
		if !d.Equal {
			s += " MISMATCH"
		}
	}
	if c := fr.Check; c != nil {
		if c.Passed {
			s += "  check pass"
		} else {
			s += "  check FAIL"
		}
	}
	return s
}
