package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fio"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the write-back cache tier evaluation: a hit-rate sweep
// (hot-set, Zipf and sequential read streams plus a random write stream,
// each at several cache sizes against the direct path) and a deterministic
// crash-recovery scenario that power-fails the cache mid-stream and audits
// the replayed log for lost acknowledged writes. Both route through
// RunCells, so the family is digest-stable under -parallel like every
// other sweep in the package.

// cacheWorkload is one row of the hit-rate grid.
type cacheWorkload struct {
	name string
	mut  func(*fio.JobSpec)
}

// cacheWorkloads covers the cache's regimes: a 90%-hot random read mix
// (the paper-style cache-friendly workload), a Zipf(0.99) skewed stream,
// a sequential scan that exercises read-around prefetch, and a random
// write stream that exercises the append log and background flush.
var cacheWorkloads = []cacheWorkload{
	{"hot90-read", func(s *fio.JobSpec) {
		s.ReadPct = 100
		s.Pattern = core.Rand
		s.HotOpPct = 90
		// A 256 kB hot set warms within the quick config's ramp, so the
		// cell measures the steady ~90%-hit regime rather than cold fills.
		s.HotRangeBytes = 256 << 10
		// Depth 4: the cell measures hit-path latency, and at deep queues
		// the 10% cold misses (cluster round trip + read-around fill each)
		// dominate the percentiles through queueing, not path cost.
		s.QueueDepth = 4
	}},
	{"zipf-read", func(s *fio.JobSpec) {
		s.ReadPct = 100
		s.Pattern = core.Rand
		s.ZipfTheta = 0.99
		s.OffsetRange = 1 << 30
	}},
	{"seq-read", func(s *fio.JobSpec) {
		s.ReadPct = 100
		s.Pattern = core.Seq
		// A scan at depth 1: deeper queues race several misses into the
		// same unfilled read-around window and understate the prefetch.
		s.QueueDepth = 1
	}},
	{"rand-write", func(s *fio.JobSpec) {
		s.ReadPct = 0
		s.Pattern = core.Rand
		// 64 kB writes so even the quick config seals segments and
		// exercises the background flush/GC path.
		s.BlockSize = 64 << 10
	}},
}

// cacheSizesMB sweeps the log partition size; 0 is the direct path
// (cache-none), the regression baseline every speedup is quoted against.
var cacheSizesMB = []int{0, 64, 256}

// CachePoint is one measured (workload, cache size) cell.
type CachePoint struct {
	Base     string
	Workload string
	// CacheMB is the log partition size in MiB; 0 = cache-none.
	CacheMB  int
	P50, P99 sim.Duration
	HitRatio float64
	Hits     uint64
	Misses   uint64
	Flushes  uint64
	// Backlog is the sealed-segment flush backlog at end of run.
	Backlog int
}

// CacheAdmitPoint is one side of the admission head-to-head: the Zipf-tail
// pollution workload on a deliberately small read cache, with read-around
// fill either unconditional or reuse-gated.
type CacheAdmitPoint struct {
	Admit     bool
	P50, P99  sim.Duration
	HitRatio  float64
	Fills     uint64
	Evictions uint64
	// Bypassed / Reuses are the admission filter's own counters (0 when
	// Admit is false).
	Bypassed uint64
	Reuses   uint64
}

// CacheRecoveryPoint is one crash-recovery scenario outcome.
type CacheRecoveryPoint struct {
	Seed       uint64
	Ops        int
	Replays    uint64
	Recoveries uint64
	// LostAcked is the shadow audit's count of acknowledged bytes
	// missing after log replay; the crash-consistency contract is 0.
	LostAcked    int64
	RecoveryTime sim.Duration
}

// CacheSweepResult is the full cache tier evaluation.
type CacheSweepResult struct {
	Base      string
	Points    []CachePoint
	Admission []CacheAdmitPoint
	Recovery  []CacheRecoveryPoint
}

// CacheSweep runs the hit-rate grid and the crash-recovery scenarios on
// the DeLiBA-K hardware stack.
func CacheSweep(cfg Config) (*CacheSweepResult, error) {
	const base = "deliba-k-hw"
	type cell struct {
		wl cacheWorkload
		mb int
	}
	cells := make([]cell, 0, len(cacheWorkloads)*len(cacheSizesMB))
	for _, wl := range cacheWorkloads {
		for _, mb := range cacheSizesMB {
			cells = append(cells, cell{wl, mb})
		}
	}
	points, err := RunCells(len(cells), func(i int) (CachePoint, error) {
		return runCacheCell(cfg, base, cells[i].wl, cells[i].mb)
	})
	if err != nil {
		return nil, err
	}
	admission, err := RunCells(2, func(i int) (CacheAdmitPoint, error) {
		return runCacheAdmitCell(cfg, base, i == 1)
	})
	if err != nil {
		return nil, err
	}
	seeds := []uint64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2}
	recovery, err := RunCells(len(seeds), func(i int) (CacheRecoveryPoint, error) {
		return runCacheRecoveryCell(cfg, base, seeds[i])
	})
	if err != nil {
		return nil, err
	}
	return &CacheSweepResult{Base: base, Points: points, Admission: admission, Recovery: recovery}, nil
}

// runCacheAdmitCell measures read-cache pollution under a Zipf(0.99) read
// stream whose tail is mostly one-touch: a hot head that fits the (small)
// read cache plus a long cold tail. Unconditional read-around fill lets
// every tail miss displace hot windows; the reuse gate admits only windows
// the ghost set has seen twice.
func runCacheAdmitCell(cfg Config, base string, admit bool) (CacheAdmitPoint, error) {
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		return CacheAdmitPoint{}, err
	}
	spec := fmt.Sprintf("%s+cache-lsvd+cachelog=64+cacheread=4", base)
	if admit {
		spec += "+cacheadmit"
	}
	sp, err := core.ParseStackSpec(spec)
	if err != nil {
		return CacheAdmitPoint{}, err
	}
	stack, err := tb.BuildStack(sp)
	if err != nil {
		return CacheAdmitPoint{}, err
	}
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:        fmt.Sprintf("cache-admit-%v", admit),
		ReadPct:     100,
		Pattern:     core.Rand,
		ZipfTheta:   0.99,
		OffsetRange: 1 << 30,
		BlockSize:   4096,
		QueueDepth:  cfg.QueueDepth,
		Jobs:        cfg.Jobs,
		Ops:         cfg.Ops,
		RampOps:     cfg.RampOps,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return CacheAdmitPoint{}, err
	}
	if res.Errors > 0 {
		return CacheAdmitPoint{}, fmt.Errorf("experiments: cache admit cell %v: %d I/O errors", admit, res.Errors)
	}
	st := core.CacheOf(stack).Stats()
	return CacheAdmitPoint{
		Admit:     admit,
		P50:       res.Lat.Median(),
		P99:       res.Lat.Percentile(99),
		HitRatio:  st.HitRatio(),
		Fills:     st.Fills,
		Evictions: st.Evictions,
		Bypassed:  st.AdmitBypassed,
		Reuses:    st.AdmitReuses,
	}, nil
}

// cacheSpec renders the stack spec string for one cell.
func cacheSpec(base string, mb int) string {
	if mb <= 0 {
		return base
	}
	return fmt.Sprintf("%s+cache-lsvd+cachelog=%d+cacheread=%d", base, mb, mb/4)
}

func runCacheCell(cfg Config, base string, wl cacheWorkload, mb int) (CachePoint, error) {
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		return CachePoint{}, err
	}
	sp, err := core.ParseStackSpec(cacheSpec(base, mb))
	if err != nil {
		return CachePoint{}, err
	}
	stack, err := tb.BuildStack(sp)
	if err != nil {
		return CachePoint{}, err
	}
	js := fio.JobSpec{
		Name:       fmt.Sprintf("cache-%s-%dmb", wl.name, mb),
		BlockSize:  4096,
		QueueDepth: cfg.QueueDepth,
		Jobs:       cfg.Jobs,
		Ops:        cfg.Ops,
		RampOps:    cfg.RampOps,
		Seed:       cfg.Seed,
	}
	wl.mut(&js)
	res, err := fio.Run(tb.Eng, stack, js)
	if err != nil {
		return CachePoint{}, err
	}
	if res.Errors > 0 {
		return CachePoint{}, fmt.Errorf("experiments: cache cell %s/%dMB: %d I/O errors", wl.name, mb, res.Errors)
	}
	pt := CachePoint{
		Base:     base,
		Workload: wl.name,
		CacheMB:  mb,
		P50:      res.Lat.Median(),
		P99:      res.Lat.Percentile(99),
	}
	if cache := core.CacheOf(stack); cache != nil {
		st := cache.Stats()
		pt.HitRatio = st.HitRatio()
		pt.Hits = st.Hits
		pt.Misses = st.Misses
		pt.Flushes = st.Flushes
		pt.Backlog = st.FlushBacklog
	}
	return pt, nil
}

// cacheCrashAt / cacheRecoverAfter place the power-fail early enough to
// catch every configuration mid-stream.
const (
	cacheCrashAt      = 150 * sim.Microsecond
	cacheRecoverAfter = 100 * sim.Microsecond
)

func runCacheRecoveryCell(cfg Config, base string, seed uint64) (CacheRecoveryPoint, error) {
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		return CacheRecoveryPoint{}, err
	}
	sp, err := core.ParseStackSpec(base + "+cache-lsvd")
	if err != nil {
		return CacheRecoveryPoint{}, err
	}
	sp.CacheVerify = true
	stack, err := tb.BuildStack(sp)
	if err != nil {
		return CacheRecoveryPoint{}, err
	}
	inj := faults.NewInjector(tb.Eng, tb.Cluster, seed)
	inj.ScheduleCacheCrash(cacheCrashAt, core.CacheOf(stack), cacheRecoverAfter)
	res, err := fio.Run(tb.Eng, stack, fio.JobSpec{
		Name:       fmt.Sprintf("cache-crash-s%d", seed),
		ReadPct:    0,
		Pattern:    core.Rand,
		BlockSize:  4096,
		QueueDepth: cfg.QueueDepth,
		Jobs:       cfg.Jobs,
		Ops:        cfg.Ops,
		Seed:       seed,
	})
	if err != nil {
		return CacheRecoveryPoint{}, err
	}
	if res.Errors > 0 {
		return CacheRecoveryPoint{}, fmt.Errorf("experiments: cache crash seed %d: %d I/O errors", seed, res.Errors)
	}
	st := core.CacheOf(stack).Stats()
	return CacheRecoveryPoint{
		Seed:         seed,
		Ops:          cfg.Ops * cfg.Jobs,
		Replays:      st.Replays,
		Recoveries:   st.Recoveries,
		LostAcked:    st.LostAcked,
		RecoveryTime: st.RecoveryTime,
	}, nil
}

// point locates a sweep cell by workload and cache size.
func (r *CacheSweepResult) point(workload string, mb int) (CachePoint, bool) {
	for _, p := range r.Points {
		if p.Workload == workload && p.CacheMB == mb {
			return p, true
		}
	}
	return CachePoint{}, false
}

// HitSpeedup returns p50(direct) / p50(largest cache) for one workload —
// the headline cache win quoted against the uncached stack.
func (r *CacheSweepResult) HitSpeedup(workload string) float64 {
	direct, ok1 := r.point(workload, 0)
	cached, ok2 := r.point(workload, cacheSizesMB[len(cacheSizesMB)-1])
	if !ok1 || !ok2 || cached.P50 <= 0 {
		return 0
	}
	return float64(direct.P50) / float64(cached.P50)
}

// Check is the cache family's acceptance bar, the same at both scales: the
// 90%-hot read stream gains at least 10x p50 over the direct path, and no
// crash-recovery seed loses an acknowledged write.
func (r *CacheSweepResult) Check(full bool) error {
	if sp := r.HitSpeedup("hot90-read"); sp < 10 {
		return fmt.Errorf("cache: hot90-read p50 speedup %.1fx below the 10x target", sp)
	}
	for _, rec := range r.Recovery {
		if rec.LostAcked != 0 {
			return fmt.Errorf("cache: seed %d lost %d acknowledged bytes across the crash", rec.Seed, rec.LostAcked)
		}
	}
	return nil
}

// Digest folds every cell and recovery outcome into an FNV-1a hash.
func (r *CacheSweepResult) Digest() uint64 {
	h := fnv.New64a()
	for _, p := range r.Points {
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%.9g|%d|%d|%d|%d\n",
			p.Base, p.Workload, p.CacheMB, int64(p.P50), int64(p.P99),
			p.HitRatio, p.Hits, p.Misses, p.Flushes, p.Backlog)
	}
	for _, a := range r.Admission {
		fmt.Fprintf(h, "adm|%v|%d|%d|%.9g|%d|%d|%d|%d\n",
			a.Admit, int64(a.P50), int64(a.P99), a.HitRatio,
			a.Fills, a.Evictions, a.Bypassed, a.Reuses)
	}
	for _, rec := range r.Recovery {
		fmt.Fprintf(h, "rec|%d|%d|%d|%d|%d|%d\n",
			rec.Seed, rec.Ops, rec.Replays, rec.Recoveries, rec.LostAcked,
			int64(rec.RecoveryTime))
	}
	return h.Sum64()
}

// AdmissionTable renders the reuse-gated admission head-to-head.
func (r *CacheSweepResult) AdmissionTable() *metrics.Table {
	t := metrics.NewTable("Read-cache admission under Zipf-tail pollution (4 MiB read cache, 1 GiB range)",
		"admission", "p50 µs", "p99 µs", "hit ratio", "fills", "evictions", "bypassed", "promoted")
	for _, a := range r.Admission {
		mode := "fill-always"
		if a.Admit {
			mode = "reuse-gated"
		}
		t.AddRow(mode, us(a.P50), us(a.P99), fmt.Sprintf("%.1f%%", a.HitRatio*100),
			a.Fills, a.Evictions, a.Bypassed, a.Reuses)
	}
	return t
}

// Table renders the hit-rate sweep.
func (r *CacheSweepResult) Table() *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("Write-back cache tier on %s", r.Base),
		"workload", "cache", "p50 µs", "p99 µs", "hit ratio", "flushes", "backlog")
	for _, p := range r.Points {
		cache := "none"
		if p.CacheMB > 0 {
			cache = fmt.Sprintf("%d MiB", p.CacheMB)
		}
		hit := "-"
		if p.CacheMB > 0 {
			hit = fmt.Sprintf("%.1f%%", p.HitRatio*100)
		}
		t.AddRow(p.Workload, cache, us(p.P50), us(p.P99), hit, p.Flushes, p.Backlog)
	}
	return t
}

// RecoveryTable renders the crash-recovery scenarios.
func (r *CacheSweepResult) RecoveryTable() *metrics.Table {
	t := metrics.NewTable("Cache crash-recovery (power-fail mid-stream, log replay)",
		"seed", "writes", "replayed ops", "recoveries", "lost acked bytes", "recovery time")
	for _, rec := range r.Recovery {
		t.AddRow(rec.Seed, rec.Ops, rec.Replays, rec.Recoveries, rec.LostAcked,
			rec.RecoveryTime.String())
	}
	return t
}
