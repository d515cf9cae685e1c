package main

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/blockmq"
	"repro/internal/core"
	"repro/internal/iouring"
	"repro/internal/lsvd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uifd"
)

// setupReps is how many extra builds of its testbed and stack a timed round
// times: half before the workload and half after it, seconds apart. A
// round's set-up time is its fastest build, since on a shared host other
// tenants only ever add time to a sub-millisecond build, and setup_s is the
// median over rounds.
const setupReps = 16

// segments is how many equal slices, by completed ops, the measured window
// is cut into for wall-clock throughput. wall_ops_per_s is the 90th
// percentile over all slices of all rounds. On a shared host other tenants
// only ever slow the simulator down, for stretches of seconds, so the upper
// decile of slices tracks its undisturbed speed where a whole-window
// average or median carries whatever load the neighbours had.
const segments = 50

// tracedSamples is the number of measured ops a traced round samples.
// Finalize computes a critical path over all retained spans once per
// sampled op, so its cost grows with the square of this number.
const tracedSamples = 1000

// roundResult is one round's report, as a child process prints it.
type roundResult struct {
	// Digest hashes every op's (id, completion time, error) in completion
	// order. Rounds of one seed must agree, traced or not.
	Digest    string `json:"digest"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// SetupS holds the timed builds of a timed round.
	SetupS []float64 `json:"setup_s,omitempty"`
	// WallS is the wall-clock length of the measured window.
	WallS   float64            `json:"wall_s"`
	Metrics map[string]float64 `json:"metrics"`
	// CPUSamples is the traced round's profile sample count.
	CPUSamples int64 `json:"cpu_samples,omitempty"`
	// Unmapped lists critical-path rows the span table does not know.
	Unmapped []string `json:"unmapped,omitempty"`
	Problems []string `json:"problems,omitempty"`
	// SegmentOpsPerS is the wall-clock throughput of each of the measured
	// window's segments (see segments).
	SegmentOpsPerS []float64 `json:"segment_ops_per_s,omitempty"`
}

func (r *roundResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func testbedConfig(w workload) core.TestbedConfig {
	cfg := core.DefaultTestbedConfig()
	if w.Split {
		cfg.Nodes, cfg.OSDsPerNode, cfg.PGs = 16, 16, 2048
		cfg.Shards, cfg.SplitDomains = 2, true
	}
	return cfg
}

// build wires one testbed and stack: the work setup_s times.
func build(w workload, tr *trace.Tracer) (*core.Testbed, core.Stack, error) {
	spec, err := core.ParseStackSpec(w.Stack)
	if err != nil {
		return nil, nil, err
	}
	tb, err := core.NewTestbed(testbedConfig(w))
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tb.EnableTracing(tr)
	}
	st, err := tb.BuildStack(spec)
	if err != nil {
		return nil, nil, err
	}
	return tb, st, nil
}

// loop is the closed-loop load generator. Every completion submits its
// job's next op from the completion callback, so the generator adds no
// simulation processes of its own.
type loop struct {
	eng     *sim.Engine
	st      core.Stack
	streams [][]uint64
	next    []int // per job: index of the next op to submit
	base    []int // per job: global id of its first op
	warmPer int   // per job: leading ops excluded from metrics
	// warm and total are completion counts at which the engine is stopped,
	// opening and closing the measured window.
	warm, total int
	completed   int
	seen        []uint8 // completions per op id
	failed      int
	digest      uint64
	openAt      sim.Time
	closeAt     sim.Time
	readLat     []sim.Duration
	writeLat    []sim.Duration
	dup         int
	// marks holds the wall clock at the start of the measured window and
	// after every segOps further completions.
	marks  []time.Time
	segOps int
}

func newLoop(eng *sim.Engine, st core.Stack, streams [][]uint64, warmPer int) *loop {
	l := &loop{eng: eng, st: st, streams: streams, warmPer: warmPer,
		next: make([]int, len(streams)), base: make([]int, len(streams))}
	for j, s := range streams {
		l.base[j] = l.total
		l.total += len(s)
	}
	l.warm = warmPer * len(streams)
	l.segOps = max((l.total-l.warm)/segments, 1)
	l.seen = make([]uint8, l.total)
	measured := l.total - l.warm
	l.readLat = make([]sim.Duration, 0, measured*readPct/100+measured/50)
	l.writeLat = make([]sim.Duration, 0, measured*(100-readPct)/100+measured/50)
	return l
}

func (l *loop) start(qd int) {
	for j := range l.streams {
		for k := 0; k < qd && l.next[j] < len(l.streams[j]); k++ {
			l.issue(j)
		}
	}
}

func (l *loop) issue(j int) {
	i := l.next[j]
	l.next[j]++
	v := l.streams[j][i]
	op := core.Read
	if v&opWrite != 0 {
		op = core.Write
	}
	at := l.eng.Now()
	l.st.Submit(op, core.Rand, int64(v&^opWrite), blockSize, j, func(err error) {
		l.done(j, i, op, at, err)
	})
}

func (l *loop) done(j, i int, op core.OpType, at sim.Time, err error) {
	id := l.base[j] + i
	l.seen[id]++
	if l.seen[id] > 1 {
		l.dup++
		return
	}
	now := l.eng.Now()
	var e uint64
	if err != nil {
		l.failed++
		e = 1
	}
	l.digest = mix(mix(l.digest, uint64(id)<<1|e), uint64(now))
	if i >= l.warmPer {
		if op == core.Read {
			l.readLat = append(l.readLat, now.Sub(at))
		} else {
			l.writeLat = append(l.writeLat, now.Sub(at))
		}
	}
	l.completed++
	if l.completed > l.warm && (l.completed-l.warm)%l.segOps == 0 {
		l.marks = append(l.marks, time.Now())
	}
	switch l.completed {
	case l.warm:
		l.openAt = now
		l.eng.Stop()
	case l.total:
		l.closeAt = now
		l.eng.Stop()
	}
	if l.next[j] < len(l.streams[j]) {
		l.issue(j)
	}
}

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>31
}

// runRound runs one round of w in this process: setup, warm-up, the
// measured window, drain and close. A traced round records spans for about
// tracedSamples measured ops and CPU-profiles the measured window.
func runRound(w workload, seed uint64, traced bool) (*roundResult, error) {
	streams := genStreams(w, seed)
	warmPer := w.WarmOps / w.Jobs
	res := &roundResult{Metrics: map[string]float64{}}

	if !traced {
		var err error
		if res.SetupS, err = timeBuilds(w, setupReps/2); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	goroutines := runtime.NumGoroutine()

	var tracer *trace.Tracer
	if traced {
		every := max(w.Ops/tracedSamples, 1)
		tracer = trace.New(trace.Config{SampleEvery: every, Salt: seed,
			TopK: (w.WarmOps+w.Ops)/every + 1})
	}
	tb, st, err := build(w, tracer)
	if err != nil {
		return nil, err
	}
	if tb.Fabric.Host(w.ClientHost) == nil {
		return nil, fmt.Errorf("stack %s has no fabric host %q", w.Stack, w.ClientHost)
	}

	l := newLoop(tb.Eng, st, streams, warmPer)
	measured := l.total - l.warm
	l.start(w.QD)
	tb.Eng.Run()
	if l.completed != l.warm {
		return nil, fmt.Errorf("engine drained with %d of %d warm-up ops complete", l.completed, l.warm)
	}
	before := takeSnap(tb, st, w)
	runtime.GC()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	allocs := heapAllocs()
	t0 := time.Now()
	l.marks = append(l.marks, t0)
	tb.Eng.Run()
	wall := time.Since(t0)
	allocs = heapAllocs() - allocs
	if traced {
		pprof.StopCPUProfile()
	}
	after := takeSnap(tb, st, w)
	res.WallS = wall.Seconds()
	for i := 1; i < len(l.marks); i++ {
		res.SegmentOpsPerS = append(res.SegmentOpsPerS, float64(l.segOps)/l.marks[i].Sub(l.marks[i-1]).Seconds())
	}

	tb.Eng.Run()
	res.Attempted, res.Failed = l.total, l.failed
	if l.completed != l.total {
		res.problemf("%d of %d ops completed by drain", l.completed, l.total)
	}
	if l.dup > 0 {
		res.problemf("%d duplicate completions", l.dup)
	}
	res.Digest = fmt.Sprintf("%016x", l.digest)
	st.Close()
	tb.Eng.Run()
	leaked := settledGoroutines(goroutines) - goroutines
	if !traced {
		more, err := timeBuilds(w, setupReps-setupReps/2)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, more...)
	}

	if traced {
		tres := tracer.Finalize(w.Name)
		budget, unmapped, err := layerBudget(tres, l.openAt)
		if err != nil {
			res.problemf("trace: %v", err)
		}
		for k, v := range budget {
			res.Metrics[k] = v
		}
		res.Unmapped = unmapped
		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		shares, n := attributeCPU(samples)
		for k, v := range shares {
			res.Metrics[k] = v
		}
		res.CPUSamples = n
		return res, nil
	}

	if len(l.readLat) == 0 || len(l.writeLat) == 0 {
		res.problemf("measured window has %d reads and %d writes", len(l.readLat), len(l.writeLat))
		return res, nil
	}
	slices.Sort(l.readLat)
	slices.Sort(l.writeLat)
	simWindow := l.closeAt.Sub(l.openAt)
	m := res.Metrics
	m["read_p50_us"] = percentile(l.readLat, 50).Microseconds()
	// Writes report a mean, not a median: on the cache workload every write
	// the log absorbs costs the same fixed device time, so the median write
	// latency is one constant for every seed.
	var writeSum float64
	for _, d := range l.writeLat {
		writeSum += d.Microseconds()
	}
	m["write_mean_us"] = writeSum / float64(len(l.writeLat))
	m["read_p9999_us"] = percentile(l.readLat, 99.99).Microseconds()
	m["write_p9999_us"] = percentile(l.writeLat, 99.99).Microseconds()
	m["sim_kiops"] = float64(measured) / simWindow.Seconds() / 1e3
	m["allocs_per_op"] = float64(allocs) / float64(measured)
	m["sim.goroutines_leaked"] = float64(leaked)
	counterMetrics(m, before, after, measured, len(l.writeLat), wall, simWindow)
	return res, nil
}

// timeBuilds builds, closes and drains w's testbed and stack n times and
// returns the build times. Each build starts on a collected heap, so none
// pays for collecting the garbage of the one before.
func timeBuilds(w workload, n int) ([]float64, error) {
	var out []float64
	for k := 0; k < n; k++ {
		runtime.GC()
		t := time.Now()
		tb, st, err := build(w, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
		st.Close()
		tb.Eng.Run()
	}
	return out, nil
}

// heapAllocs is the cumulative count of heap allocations, tiny ones
// included.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// settledGoroutines gives exiting goroutines a moment to finish, then
// returns the live count. Procs finish by handing control back to the
// engine and then returning, so a few may still be on their way out.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(50 * time.Millisecond)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// snap holds the layer counters at one edge of the measured window. The
// engine is stopped while it is taken, so reading other shards is safe.
type snap struct {
	events, windows, posted uint64
	busy                    []time.Duration
	enters, overflows       uint64
	mq                      blockmq.Stats
	cmds, served            uint64
	clientBusy              sim.Duration
	nodeBusy                []sim.Duration
	cache                   lsvd.Stats
}

func takeSnap(tb *core.Testbed, st core.Stack, w workload) snap {
	var s snap
	if tb.Shards != nil {
		for _, ss := range tb.Shards.Stats() {
			s.events += ss.Events
			s.busy = append(s.busy, ss.Busy)
		}
		s.windows, s.posted = tb.Shards.Windows(), tb.Shards.Posted()
	} else {
		s.events = tb.Eng.Executed()
	}
	if r, ok := st.(interface{ Rings() []*iouring.Ring }); ok {
		for _, ring := range r.Rings() {
			enters, _, _, overflow, _ := ring.Stats()
			s.enters += enters
			s.overflows += overflow
		}
	}
	if b, ok := st.(interface{ MQ() *blockmq.MQ }); ok && b.MQ() != nil {
		s.mq = b.MQ().Stats()
	}
	if t, ok := st.(interface{ Driver() *uifd.Driver }); ok && t.Driver() != nil {
		reads, writes := t.Driver().Stats()
		s.cmds = reads + writes
	}
	for _, o := range tb.Cluster.OSDs {
		s.served += o.Served()
	}
	if h := tb.Fabric.Host(w.ClientHost); h != nil {
		s.clientBusy = h.StackBusyTime()
	}
	for _, h := range tb.Cluster.NodeHosts {
		s.nodeBusy = append(s.nodeBusy, h.StackBusyTime())
	}
	if c := core.CacheOf(st); c != nil {
		s.cache = c.Stats()
	}
	return s
}

// counterMetrics derives the per-layer counter metrics from the counters at
// both edges of the measured window.
func counterMetrics(m map[string]float64, a, b snap, ops, writes int, wall time.Duration, simWindow sim.Duration) {
	per := func(x uint64) float64 { return float64(x) / float64(ops) }
	events := b.events - a.events
	m["sim.events_per_op"] = per(events)
	m["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(events)

	m["sim.windows_per_kop"] = per(b.windows-a.windows) * 1e3
	m["sim.xshard_msgs_per_op"] = per(b.posted - a.posted)
	m["sim.shard_busy_frac"], m["sim.shard_imbalance"] = 0, 0
	if len(b.busy) > 0 {
		var sum, peak time.Duration
		for i := range b.busy {
			d := b.busy[i] - a.busy[i]
			sum += d
			peak = max(peak, d)
		}
		if sum > 0 {
			m["sim.shard_busy_frac"] = float64(sum) / float64(wall) / float64(len(b.busy))
			m["sim.shard_imbalance"] = float64(peak) * float64(len(b.busy)) / float64(sum)
		}
	}

	m["iouring.enters_per_op"] = per(b.enters - a.enters)
	m["iouring.cq_overflows"] = float64(b.overflows - a.overflows)
	m["blockmq.direct_frac"] = 0
	if sub := b.mq.Submitted - a.mq.Submitted; sub > 0 {
		m["blockmq.direct_frac"] = float64(b.mq.DirectHits-a.mq.DirectHits) / float64(sub)
	}
	m["blockmq.requeues_per_op"] = per(b.mq.Requeues - a.mq.Requeues)
	m["uifd.cmds_per_op"] = per(b.cmds - a.cmds)
	m["rados.osd_ops_per_io"] = per(b.served - a.served)

	m["netsim.client_stack_busy_frac"] = float64(b.clientBusy-a.clientBusy) / float64(simWindow)
	var node sim.Duration
	for i := range b.nodeBusy {
		node = max(node, b.nodeBusy[i]-a.nodeBusy[i])
	}
	m["netsim.node_stack_busy_max_frac"] = float64(node) / float64(simWindow)

	c, d := b.cache, a.cache
	hits, misses := c.Hits-d.Hits, c.Misses-d.Misses
	ratio := func(x, y uint64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	userBytes := uint64(writes) * blockSize
	m["lsvd.hit_ratio"] = ratio(hits, hits+misses)
	// Each read-around fill brings in one 64 KiB window (the lsvd default).
	m["lsvd.fill_useful_frac"] = ratio(hits, (c.Fills-d.Fills)*uint64(lsvd.DefaultConfig().ReadAround/blockSize))
	m["lsvd.coalesced_frac"] = ratio(c.CoalescedFills-d.CoalescedFills, misses)
	m["lsvd.evictions_per_op"] = per(c.Evictions - d.Evictions)
	m["lsvd.flush_cycles"] = float64(c.Flushes - d.Flushes)
	m["lsvd.throttles_per_write"] = ratio(c.Throttles-d.Throttles, uint64(writes))
	m["lsvd.flush_backlog"] = float64(c.FlushBacklog)
	m["lsvd.log_bytes_per_user_byte"] = ratio(c.AppendedBytes-d.AppendedBytes, userBytes)
	m["lsvd.flush_bytes_per_user_byte"] = ratio(c.FlushedBytes-d.FlushedBytes, userBytes)
}
