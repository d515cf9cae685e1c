package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// raftSweepSerialRef is the literal nested loop RaftSweep replaces — the
// serial leg of the determinism property.
func raftSweepSerialRef(cfg Config) (*RaftSweepResult, error) {
	res := &RaftSweepResult{}
	for _, repl := range raftReplAxis {
		for _, plan := range raftPlans {
			cell, err := runRaftCell(cfg, repl, plan)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// TestRaftSweepDigestInvariantAcrossParallelism proves the replication
// head-to-head is bit-identical run serially and with 1 and 4 workers —
// elections, redirects and stall windows included.
func TestRaftSweepDigestInvariantAcrossParallelism(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		cfg := determinismConfig(seed)
		ref, err := raftSweepSerialRef(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Digest()
		for _, workers := range []int{1, 4} {
			withParallelism(t, workers, func() {
				got, err := RaftSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.Digest(); d != want {
					t.Errorf("seed %d, %d workers: digest %#x != serial reference %#x",
						seed, workers, d, want)
				}
			})
		}
	}
}

// TestRaftSweepAvailabilityHeadToHead asserts the family's acceptance bar
// (Check: under the silent OSD crash and under the node partition, Raft's
// measured availability is strictly above primary-copy's) plus the shape
// behind it: the faults bite primary-copy, Raft's longest outage is
// shorter, and both protocols are clean when healthy.
func TestRaftSweepAvailabilityHeadToHead(t *testing.T) {
	res, err := RaftSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(false); err != nil {
		t.Error(err)
	}
	for _, scenario := range []string{"osd-crash", "partition"} {
		pc, ok := res.Cell(core.ReplPrimary, scenario)
		if !ok {
			t.Fatalf("no repl-primary/%s cell", scenario)
		}
		rc, ok := res.Cell(core.ReplRaft, scenario)
		if !ok {
			t.Fatalf("no repl-raft/%s cell", scenario)
		}
		if pc.Stalls == 0 {
			t.Errorf("%s: primary-copy recorded no write-stall window — the fault never bit", scenario)
		}
		if rc.StallMax >= pc.StallMax {
			t.Errorf("%s: raft longest outage %v not below primary-copy %v",
				scenario, rc.StallMax, pc.StallMax)
		}
	}
	for _, repl := range raftReplAxis {
		c, ok := res.Cell(repl, "healthy")
		if !ok {
			t.Fatalf("no %v/healthy cell", repl)
		}
		if c.Errors != 0 || c.TimeAvail != 1.0 || c.Stalls != 0 {
			t.Errorf("%v/healthy: errors=%d avail=%.4f stalls=%d, want clean run",
				repl, c.Errors, c.TimeAvail, c.Stalls)
		}
	}
	// The Raft cells actually exercised the backend.
	rc, _ := res.Cell(core.ReplRaft, "partition")
	if rc.Raft.Commits == 0 || rc.Raft.Elections == 0 {
		t.Errorf("repl-raft/partition: commits=%d elections=%d, want the partition to force elections",
			rc.Raft.Commits, rc.Raft.Elections)
	}
}

// TestRaftElectionStormDeadlineBudget is the raced property: across seeds,
// an election storm under the node partition never holds a client op past
// its per-attempt deadline budget — every measured op (committed or
// abandoned) settles within (MaxRetries+1) deadlines plus the jittered
// backoff windows between attempts. Run under -race in CI, the parallel
// cells double as a data-race probe of the runner + Raft state.
func TestRaftElectionStormDeadlineBudget(t *testing.T) {
	tcfg := raftTestbedConfig(Quick())
	r := tcfg.Resilience
	budget := sim.Duration(r.MaxRetries+1)*r.Deadline +
		sim.Duration(r.MaxRetries)*r.BackoffCap
	// Stack-side queueing (ring poll, DMA batching) sits in front of the
	// resilience layer and is not bounded by its deadline; one extra
	// deadline of slack covers it.
	budget += r.Deadline
	plan := raftPlans[2]
	if plan.name != "partition" {
		t.Fatalf("plan[2] = %s, want partition", plan.name)
	}
	withParallelism(t, 4, func() {
		seeds := []uint64{1, 5, 9, 13}
		cells, err := RunCells(len(seeds), func(i int) (RaftCell, error) {
			cfg := determinismConfig(seeds[i])
			return runRaftCell(cfg, core.ReplRaft, plan)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			if c.MaxLat > budget {
				t.Errorf("seed %d: op held %v, past the %v per-attempt deadline budget",
					seeds[i], c.MaxLat, budget)
			}
			if c.Raft.Elections == 0 {
				t.Errorf("seed %d: partition provoked no election — the storm never happened", seeds[i])
			}
		}
	})
}
