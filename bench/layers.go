package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// spanLayer maps every span name the program emits to the per-layer metric
// its critical-path time is charged to. A row name with a ":wait" suffix is
// looked up whole first (queue wait has its own metric where the layer
// separates it) and then by its span name. Names missing here land in
// unmapped.path_us, so a span added to the program shows up instead of
// vanishing.
var spanLayer = map[string]string{
	"io-read":          "host.unattributed_us",
	"io-write":         "host.unattributed_us",
	"sq-backoff":       "iouring.path_us",
	"kernel":           "core.kernel_path_us",
	"blk-mq":           "blockmq.path_us",
	"blk-mq:wait":      "blockmq.wait_us",
	"card-pipeline":    "fpga.path_us",
	"rs-encode":        "fpga.path_us",
	"ec-reconstruct":   "fpga.path_us",
	"crush-select":     "crush.path_us",
	"replica-write":    "core.fanout_path_us",
	"replica-read":     "core.fanout_path_us",
	"ec-shard-write":   "core.fanout_path_us",
	"ec-shard-read":    "core.fanout_path_us",
	"fanout-attempt":   "core.fanout_path_us",
	"osd-service":      "rados.path_us",
	"osd-service:wait": "rados.wait_us",
	"rados-attempt":    "rados.path_us",
	"ec-decode":        "rados.path_us",
	"replica-failover": "rados.path_us",
	"lsvd-cache":       "lsvd.path_us",
	"writeback-flush":  "lsvd.path_us",
	"raft-commit-wait": "raft.path_us",
	"raft-append":      "raft.path_us",
	"raft-no-leader":   "raft.path_us",
	"leader-elect":     "raft.path_us",
}

const unmappedMetric = "unmapped.path_us"

// layerOf returns the metric a critical-path row is charged to and whether
// the table knows the row.
func layerOf(row string) (string, bool) {
	if m, ok := spanLayer[row]; ok {
		return m, true
	}
	if m, ok := spanLayer[strings.TrimSuffix(row, ":wait")]; ok {
		return m, true
	}
	return unmappedMetric, false
}

// layerBudget turns the traced round's exemplars into simulated µs per layer
// per sampled op, averaged over the ops submitted at or after from (the end
// of warm-up). It checks that each op's path rows sum to its root latency
// and returns the row names the table does not know.
func layerBudget(res *trace.Result, from sim.Time) (map[string]float64, []string, error) {
	start := make(map[uint64]sim.Time, len(res.Exemplars))
	for _, sp := range res.Spans {
		if sp.Parent == 0 {
			start[sp.ID] = sp.Start
		}
	}
	out := map[string]float64{unmappedMetric: 0}
	for _, m := range spanLayer {
		out[m] = 0
	}
	unknown := map[string]bool{}
	var ops int
	var total sim.Duration
	for _, ex := range res.Exemplars {
		if start[ex.Root] < from {
			continue
		}
		var sum sim.Duration
		for _, row := range ex.Path {
			m, ok := layerOf(row.Name)
			if !ok {
				unknown[row.Name] = true
			}
			out[m] += row.Dur.Microseconds()
			sum += row.Dur
		}
		if sum != ex.Dur {
			return nil, nil, fmt.Errorf("trace %x: path rows sum to %v, root latency is %v", ex.Trace, sum, ex.Dur)
		}
		ops++
		total += ex.Dur
	}
	if ops == 0 {
		return nil, nil, fmt.Errorf("no sampled op after warm-up")
	}
	unattributed := out["host.unattributed_us"]
	for m := range out {
		out[m] /= float64(ops)
	}
	out["host.unattributed_frac"] = unattributed / total.Microseconds()
	names := make([]string, 0, len(unknown))
	for n := range unknown {
		names = append(names, n)
	}
	sort.Strings(names)
	return out, names, nil
}
