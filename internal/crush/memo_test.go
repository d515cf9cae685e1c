package crush

import (
	"slices"
	"testing"
)

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMemoFollowsReweightVersion: a new reweight version flushes the memo,
// so an OSD marked out disappears from every answer.
func TestMemoFollowsReweightVersion(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 2, OSDsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	rule := m.Rule("replicated_rule")
	memo := NewMemo(m)
	rw := make([]uint32, m.MaxDevices())
	for i := range rw {
		rw[i] = WeightOne
	}
	for pg := uint32(0); pg < 64; pg++ {
		if _, err := memo.Select(rule, 0, pg, 2, rw, 1); err != nil {
			t.Fatal(err)
		}
	}
	rw[3] = 0
	for pg := uint32(0); pg < 64; pg++ {
		set, err := memo.Select(rule, 0, pg, 2, rw, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range set {
			if o == 3 {
				t.Fatalf("pg %d still placed on out osd.3: %v", pg, set)
			}
		}
	}
}

// TestMemoReweightKeepsUnaffected: after a reweight edit, every memo
// answer equals a fresh selection under the new table, for replicated
// (host and device failure domains) and EC rules. An edit that only lowers
// weights re-selects just the PGs that held a lowered device; an edit that
// raises one re-selects every PG.
func TestMemoReweightKeepsUnaffected(t *testing.T) {
	m, root, err := BuildCluster(ClusterSpec{Hosts: 8, OSDsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.AddRule(&Rule{Name: "device", Steps: []Step{
		{Op: OpTake, Arg1: root},
		{Op: OpChooseFirstN, Arg1: 0, Arg2: TypeOSD},
		{Op: OpEmit},
	}})
	const pgs = 256
	for _, tc := range []struct {
		rule  string
		width int
	}{{"replicated_rule", 3}, {"device", 3}, {"ec_rule", 6}} {
		rule := m.Rule(tc.rule)
		memo := NewMemo(m)
		rw := make([]uint32, m.MaxDevices())
		for i := range rw {
			rw[i] = WeightOne
		}
		ver := uint64(1)
		selectAll := func() (misses uint64) {
			before := memo.Misses
			for pg := uint32(0); pg < pgs; pg++ {
				got, err := memo.Select(rule, 0, pg, tc.width, rw, ver)
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.Select(rule, Hash2(pg, 0), tc.width, rw)
				if err != nil {
					t.Fatal(err)
				}
				if !equalSets(got, want) {
					t.Fatalf("%s pg %d: memo %v, fresh %v", tc.rule, pg, got, want)
				}
			}
			return memo.Misses - before
		}
		holding := func(devs ...int) (n uint64) {
			for pg := uint32(0); pg < pgs; pg++ {
				set, _ := memo.Select(rule, 0, pg, tc.width, rw, ver)
				for _, o := range set {
					if slices.Contains(devs, o) {
						n++
						break
					}
				}
			}
			return n
		}
		selectAll()
		// Lower: one device out, one to half weight.
		affected := holding(5, 17)
		rw[5], rw[17] = 0, WeightOne/2
		ver++
		if got := selectAll(); got != affected {
			t.Fatalf("%s: lowering re-selected %d PGs, want the %d that held a lowered device", tc.rule, got, affected)
		}
		// Lower further: the half-weight device goes out too.
		affected = holding(17)
		rw[17] = 0
		ver++
		if got := selectAll(); got != affected {
			t.Fatalf("%s: second lowering re-selected %d PGs, want %d", tc.rule, got, affected)
		}
		// Raise: both back in, so every PG is selected afresh.
		rw[5], rw[17] = WeightOne, WeightOne
		ver++
		if got := selectAll(); got != pgs {
			t.Fatalf("%s: raising re-selected %d PGs, want all %d", tc.rule, got, pgs)
		}
	}
}

// TestMemoHitAllocs: a warm memo hit performs no CRUSH descent and no
// allocation, and returns the memoised slice itself.
func TestMemoHitAllocs(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 4, OSDsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	rule := m.Rule("replicated_rule")
	memo := NewMemo(m)
	first, err := memo.Select(rule, 2, 7, 3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var again []int
	allocs := testing.AllocsPerRun(1000, func() {
		again, _ = memo.Select(rule, 2, 7, 3, nil, 0)
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocated %.1f/op, want 0", allocs)
	}
	if &again[0] != &first[0] || memo.Misses != 1 {
		t.Fatalf("hit did not return the memoised slice (misses %d)", memo.Misses)
	}
}
