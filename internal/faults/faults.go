// Package faults is the deterministic fault-injection layer: seeded,
// engine-clock-driven schedules of OSD crashes and restarts, slow-disk
// degradation, packet loss, link flaps and network partitions. A
// (seed, scenario) pair expands to the same event schedule and the same
// runtime loss decisions on every run, so fault experiments share the
// repo's bit-identical-digest discipline.
//
// The package sits between the substrate and the client: it imports sim,
// rados and netsim but not core.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/lsvd"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
)

// EventKind names one fault transition in a schedule.
type EventKind int

const (
	// CrashOSD fails an OSD, aborting queued and in-flight requests.
	CrashOSD EventKind = iota
	// RestartOSD brings a crashed OSD back up.
	RestartOSD
	// SlowOSD multiplies an OSD's mean service time (degrading drive).
	SlowOSD
	// HealOSD restores an OSD's healthy service time.
	HealOSD
	// FlapLink takes one host's link down: all traffic to or from it drops.
	FlapLink
	// HealLink restores a flapped link.
	HealLink
	// Partition isolates one storage node from the rest of the fabric.
	Partition
	// HealPartition removes the partition.
	HealPartition
	// CrashCache power-fails the client-side write-back cache: every
	// log append not yet durable on the cache device is lost.
	CrashCache
	// RecoverCache replays the surviving log and resumes held I/O.
	RecoverCache
	// SilentOSD black-holes an OSD without marking it down: requests vanish
	// instead of erroring, modelling the window before failure detection.
	SilentOSD
	// DetectOSD is the deferred detection of a silent failure: the OSD is
	// finally marked down, so further requests fail fast.
	DetectOSD
)

func (k EventKind) String() string {
	switch k {
	case CrashOSD:
		return "crash"
	case RestartOSD:
		return "restart"
	case SlowOSD:
		return "slow"
	case HealOSD:
		return "heal"
	case FlapLink:
		return "flap"
	case HealLink:
		return "heal-link"
	case Partition:
		return "partition"
	case HealPartition:
		return "heal-partition"
	case CrashCache:
		return "crash-cache"
	case RecoverCache:
		return "recover-cache"
	case SilentOSD:
		return "crash-silent"
	case DetectOSD:
		return "detect"
	}
	return "?"
}

// Event is one scheduled fault transition. Target is an OSD id for
// crash/slow events and a node index for flap/partition events. Factor is
// the slow multiplier (SlowOSD only).
type Event struct {
	At     sim.Duration
	Kind   EventKind
	Target int
	Factor float64
}

// String renders the event for schedules and test diffs.
func (e Event) String() string {
	if e.Kind == SlowOSD {
		return fmt.Sprintf("%v %s osd.%d x%g", e.At, e.Kind, e.Target, e.Factor)
	}
	return fmt.Sprintf("%v %s %d", e.At, e.Kind, e.Target)
}

// Stats counts fault activity observed at runtime.
type Stats struct {
	Crashes    uint64
	Restarts   uint64
	Slowdowns  uint64
	Flaps      uint64
	Partitions uint64
	// CacheCrashes/CacheRecoveries count write-back cache power-fail and
	// log-replay transitions.
	CacheCrashes    uint64
	CacheRecoveries uint64
	// HookDrops counts wire messages removed by loss, flaps or partitions.
	HookDrops uint64
}

// Injector owns a cluster's fault state: the scheduled event list, the
// per-message drop decision (loss/flap/partition) and its seeded random
// stream. Build one with NewInjector and arm faults directly, or expand a
// Scenario with Install.
type Injector struct {
	eng     *sim.Engine
	cluster *rados.Cluster
	fabric  *netsim.Fabric
	rng     *sim.RNG

	lossRate  float64
	linkDown  map[*netsim.Host]bool
	isolated  map[*netsim.Host]bool
	partOn    bool
	hookArmed bool

	events []Event
	stats  Stats
}

// NewInjector binds a fault injector to a cluster. The seed drives only the
// injector's runtime randomness (per-message loss); schedules built from a
// Scenario use the scenario's own derived stream.
func NewInjector(eng *sim.Engine, cluster *rados.Cluster, seed uint64) *Injector {
	return &Injector{
		eng:     eng,
		cluster: cluster,
		fabric:  cluster.Fabric,
		rng:     sim.NewRNG(seed ^ 0xFA17),
	}
}

// Stats returns the runtime fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Events returns the scheduled fault transitions, time-ordered.
func (in *Injector) Events() []Event {
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// record appends to the schedule kept for introspection and digests.
func (in *Injector) record(e Event) { in.events = append(in.events, e) }

// armHook installs the fabric fault hook on first use so OSD-only fault
// plans leave the network send path untouched (nil-check only).
func (in *Injector) armHook() {
	if in.hookArmed {
		return
	}
	in.hookArmed = true
	in.fabric.SetFaultHook(in.hook)
}

// hook decides, in deterministic engine order, whether one wire message is
// lost. Flaps and partitions drop everything crossing the boundary; loss
// draws from the injector's seeded stream.
func (in *Injector) hook(src, dst *netsim.Host, n int) bool {
	if len(in.linkDown) > 0 && (in.linkDown[src] || in.linkDown[dst]) {
		in.stats.HookDrops++
		return true
	}
	if in.partOn && in.isolated[src] != in.isolated[dst] {
		in.stats.HookDrops++
		return true
	}
	if in.lossRate > 0 && in.rng.Float64() < in.lossRate {
		in.stats.HookDrops++
		return true
	}
	return false
}

// SetLossRate arms (or, with 0, disarms) uniform per-message packet loss.
func (in *Injector) SetLossRate(rate float64) {
	in.lossRate = rate
	if rate > 0 {
		in.armHook()
	}
}

// ScheduleCrash crashes osd at offset at; if downFor > 0 it restarts
// downFor later, otherwise it stays down.
func (in *Injector) ScheduleCrash(at sim.Duration, osd int, downFor sim.Duration) {
	o := in.cluster.OSDs[osd]
	in.record(Event{At: at, Kind: CrashOSD, Target: osd})
	in.eng.Schedule(at, func() {
		in.stats.Crashes++
		o.SetUp(false)
	})
	if downFor > 0 {
		in.record(Event{At: at + downFor, Kind: RestartOSD, Target: osd})
		in.eng.Schedule(at+downFor, func() {
			in.stats.Restarts++
			o.SetUp(true)
		})
	}
}

// ScheduleCacheCrash power-fails the client-side write-back cache at
// offset at, losing every append not yet durable on the cache device;
// if recoverAfter > 0 it replays the surviving log recoverAfter later
// (otherwise the cache stays down and holds submitted I/O). The pair
// joins the injector's schedule, so cache-crash scenarios share the
// digest discipline of the OSD fault families.
func (in *Injector) ScheduleCacheCrash(at sim.Duration, cache *lsvd.Cache, recoverAfter sim.Duration) {
	in.record(Event{At: at, Kind: CrashCache})
	in.eng.Schedule(at, func() {
		in.stats.CacheCrashes++
		cache.Crash()
	})
	if recoverAfter > 0 {
		in.record(Event{At: at + recoverAfter, Kind: RecoverCache})
		in.eng.Schedule(at+recoverAfter, func() {
			cache.Recover(func() { in.stats.CacheRecoveries++ })
		})
	}
}

// ScheduleCrashSilent crashes osd at offset at as an *undetected* failure:
// the OSD black-holes requests (no errors, no completions) until the
// cluster "detects" it grace later and marks it down, so requests fail
// fast from then on. If downFor > 0 the OSD restarts downFor after the
// silent failure began. grace models Ceph's monitor heartbeat window —
// the interval where primary-copy writes stall against a dead replica
// while a Raft group has already elected around it.
func (in *Injector) ScheduleCrashSilent(at sim.Duration, osd int, grace, downFor sim.Duration) {
	o := in.cluster.OSDs[osd]
	in.record(Event{At: at, Kind: SilentOSD, Target: osd})
	in.eng.Schedule(at, func() {
		in.stats.Crashes++
		o.SetSilent(true)
	})
	if grace > 0 && (downFor <= 0 || grace < downFor) {
		in.record(Event{At: at + grace, Kind: DetectOSD, Target: osd})
		in.eng.Schedule(at+grace, func() { o.SetUp(false) })
	}
	if downFor > 0 {
		in.record(Event{At: at + downFor, Kind: RestartOSD, Target: osd})
		in.eng.Schedule(at+downFor, func() {
			in.stats.Restarts++
			o.SetSilent(false)
			o.SetUp(true)
		})
	}
}

// ScheduleSlow degrades osd's service time by factor from at for dur
// (dur 0 = permanently).
func (in *Injector) ScheduleSlow(at sim.Duration, osd int, factor float64, dur sim.Duration) {
	o := in.cluster.OSDs[osd]
	in.record(Event{At: at, Kind: SlowOSD, Target: osd, Factor: factor})
	in.eng.Schedule(at, func() {
		in.stats.Slowdowns++
		o.SetSlow(factor)
	})
	if dur > 0 {
		in.record(Event{At: at + dur, Kind: HealOSD, Target: osd})
		in.eng.Schedule(at+dur, func() { o.SetSlow(1) })
	}
}

// ScheduleFlap takes node's link down from at for dur: every message to or
// from that host drops while the flap lasts.
func (in *Injector) ScheduleFlap(at sim.Duration, node int, dur sim.Duration) {
	h := in.cluster.NodeHosts[node]
	in.armHook()
	if in.linkDown == nil {
		in.linkDown = make(map[*netsim.Host]bool)
	}
	in.record(Event{At: at, Kind: FlapLink, Target: node})
	in.eng.Schedule(at, func() {
		in.stats.Flaps++
		in.linkDown[h] = true
	})
	if dur > 0 {
		in.record(Event{At: at + dur, Kind: HealLink, Target: node})
		in.eng.Schedule(at+dur, func() { delete(in.linkDown, h) })
	}
}

// ScheduleFlappyLink schedules count short flaps of node's link starting at
// offset at: each flap drops traffic for flapFor, then the link heals for
// gap before the next flap. It composes the existing flap primitive into
// the repeated-jitter pattern that distinguishes "one bad minute" from "a
// link that will not stay up".
func (in *Injector) ScheduleFlappyLink(at sim.Duration, node int, flapFor, gap sim.Duration, count int) {
	for i := 0; i < count; i++ {
		in.ScheduleFlap(at+sim.Duration(i)*(flapFor+gap), node, flapFor)
	}
}

// SchedulePartition isolates storage node from every other host (including
// the client) from at for dur. Traffic within each side still flows.
func (in *Injector) SchedulePartition(at sim.Duration, node int, dur sim.Duration) {
	h := in.cluster.NodeHosts[node]
	in.armHook()
	if in.isolated == nil {
		in.isolated = make(map[*netsim.Host]bool)
	}
	in.record(Event{At: at, Kind: Partition, Target: node})
	in.eng.Schedule(at, func() {
		in.stats.Partitions++
		in.isolated[h] = true
		in.partOn = true
	})
	if dur > 0 {
		in.record(Event{At: at + dur, Kind: HealPartition, Target: node})
		in.eng.Schedule(at+dur, func() {
			delete(in.isolated, h)
			in.partOn = len(in.isolated) > 0
		})
	}
}

// Scenario is a declarative fault plan: event families with mean arrival
// rates over a horizon. Install expands it, via a stream derived from
// (seed, Name), into a concrete schedule — the same pair always yields the
// same schedule, which is what makes fault sweeps digest-stable.
type Scenario struct {
	Name string
	// Horizon bounds scheduled fault arrivals: events are drawn in [0, Horizon).
	Horizon sim.Duration

	// CrashMTBF is the mean time between OSD crashes (exponential arrivals);
	// zero disables. Each crash picks a uniform OSD and restarts after
	// CrashDowntime (0 = stays down).
	CrashMTBF     sim.Duration
	CrashDowntime sim.Duration

	// SlowMTBF arms slow-disk episodes: a uniform OSD serves SlowFactor×
	// slower for SlowFor.
	SlowMTBF   sim.Duration
	SlowFactor float64
	SlowFor    sim.Duration

	// LossRate is uniform per-message packet loss in [0, 1).
	LossRate float64

	// FlapMTBF arms link flaps: a uniform storage node drops all traffic
	// for FlapFor.
	FlapMTBF sim.Duration
	FlapFor  sim.Duration

	// PartitionAt isolates the last storage node at this offset for
	// PartitionFor; zero disables.
	PartitionAt  sim.Duration
	PartitionFor sim.Duration

	// FlappyAt arms a flappy link on a uniform storage node at this offset:
	// FlappyCount flaps of FlappyFor separated by FlappyGap of calm. Zero
	// disables. Unlike FlapMTBF's isolated one-shots, this models repeated
	// jitter on the *same* link — the case where retry backoff and Raft
	// election timers interact.
	FlappyAt    sim.Duration
	FlappyFor   sim.Duration
	FlappyGap   sim.Duration
	FlappyCount int
}

// Active reports whether the scenario injects any fault at all.
func (sc Scenario) Active() bool {
	return sc.CrashMTBF > 0 || sc.SlowMTBF > 0 || sc.LossRate > 0 ||
		sc.FlapMTBF > 0 || sc.PartitionAt > 0 || sc.FlappyAt > 0
}

// fnv64 hashes the scenario name into the seed so equal seeds with
// different scenarios draw from different streams.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Install expands the scenario into scheduled fault events on a fresh
// injector bound to the cluster. Event families are expanded in a fixed
// order from independent sub-streams, so adding loss to a scenario does not
// shift its crash times.
func Install(eng *sim.Engine, cluster *rados.Cluster, seed uint64, sc Scenario) *Injector {
	in := NewInjector(eng, cluster, seed^fnv64(sc.Name))
	nOSD := len(cluster.OSDs)
	nNode := len(cluster.NodeHosts)
	if sc.CrashMTBF > 0 && nOSD > 0 {
		rng := sim.NewRNG(seed ^ fnv64(sc.Name+"/crash"))
		for t := rng.ExpDuration(sc.CrashMTBF); t < sc.Horizon; t += rng.ExpDuration(sc.CrashMTBF) {
			in.ScheduleCrash(t, rng.Intn(nOSD), sc.CrashDowntime)
		}
	}
	if sc.SlowMTBF > 0 && sc.SlowFactor > 1 && nOSD > 0 {
		rng := sim.NewRNG(seed ^ fnv64(sc.Name+"/slow"))
		for t := rng.ExpDuration(sc.SlowMTBF); t < sc.Horizon; t += rng.ExpDuration(sc.SlowMTBF) {
			in.ScheduleSlow(t, rng.Intn(nOSD), sc.SlowFactor, sc.SlowFor)
		}
	}
	if sc.FlapMTBF > 0 && nNode > 0 {
		rng := sim.NewRNG(seed ^ fnv64(sc.Name+"/flap"))
		for t := rng.ExpDuration(sc.FlapMTBF); t < sc.Horizon; t += rng.ExpDuration(sc.FlapMTBF) {
			in.ScheduleFlap(t, rng.Intn(nNode), sc.FlapFor)
		}
	}
	if sc.PartitionAt > 0 && nNode > 0 {
		in.SchedulePartition(sc.PartitionAt, nNode-1, sc.PartitionFor)
	}
	if sc.FlappyAt > 0 && sc.FlappyCount > 0 && nNode > 0 {
		rng := sim.NewRNG(seed ^ fnv64(sc.Name+"/flappy"))
		in.ScheduleFlappyLink(sc.FlappyAt, rng.Intn(nNode), sc.FlappyFor, sc.FlappyGap, sc.FlappyCount)
	}
	if sc.LossRate > 0 {
		in.SetLossRate(sc.LossRate)
	}
	sort.SliceStable(in.events, func(i, j int) bool { return in.events[i].At < in.events[j].At })
	return in
}
