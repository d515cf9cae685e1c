package trace

import (
	"sort"

	"repro/internal/metrics"
)

// Stage is one span name's latency histogram over every span the tracer's
// sinks recorded.
type Stage struct {
	Name string
	Hist *metrics.Histogram
}

// Stages summarises every recorded span, one histogram per span name,
// sorted by name. Unlike Finalize's exemplars it reads all spans, so with
// SampleEvery 1 a stage's ops are exactly the times the stack crossed that
// boundary; a span still open when the run ended counts with zero
// duration. Call it after the simulation has drained.
func (t *Tracer) Stages() []Stage {
	t.mu.Lock()
	sinks := t.sinks
	t.mu.Unlock()
	hists := map[string]*metrics.Histogram{}
	for _, s := range sinks {
		for i := range s.spans {
			sp := &s.spans[i]
			h := hists[sp.Name]
			if h == nil {
				h = metrics.NewHistogram()
				hists[sp.Name] = h
			}
			h.Record(sp.Dur)
		}
	}
	out := make([]Stage, 0, len(hists))
	for name, h := range hists {
		out = append(out, Stage{Name: name, Hist: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StageTable renders per-stage latency rows.
func StageTable(stages []Stage) *metrics.Table {
	t := metrics.NewTable("I/O lifecycle stage profile (spans)",
		"stage", "ops", "mean", "p50", "p99", "p99.9", "max")
	for _, st := range stages {
		h := st.Hist
		t.AddRow(st.Name, h.Count(), h.Mean().String(), h.Median().String(),
			h.Percentile(99).String(), h.Percentile(99.9).String(), h.Max().String())
	}
	return t
}
