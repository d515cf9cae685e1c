package crush

import (
	"testing"
	"testing/quick"
)

func TestHashDeterminism(t *testing.T) {
	if Hash2(1, 2) != Hash2(1, 2) || Hash3(1, 2, 3) != Hash3(1, 2, 3) {
		t.Fatal("hash not deterministic")
	}
	// Known regression values pin the implementation.
	got := []uint32{Hash2(0, 0), Hash3(1, 2, 3), Hash4(1, 2, 3, 4)}
	for i := 1; i < len(got); i++ {
		if got[i] == got[0] {
			t.Fatalf("suspicious equal hashes: %v", got)
		}
	}
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	var totalFlips, trials int
	for x := uint32(0); x < 64; x++ {
		base := Hash3(x, 7, 9)
		for bit := uint(0); bit < 32; bit++ {
			h := Hash3(x^(1<<bit), 7, 9)
			diff := base ^ h
			for ; diff != 0; diff &= diff - 1 {
				totalFlips++
			}
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 12 || avg > 20 {
		t.Fatalf("avalanche average %.2f bits, want ~16", avg)
	}
}

func newBucketT(t *testing.T, alg Alg, n int, weights []uint32) *Bucket {
	t.Helper()
	items := make([]int, n)
	for i := range items {
		items[i] = i + 100
	}
	if weights == nil {
		weights = make([]uint32, n)
		for i := range weights {
			weights[i] = WeightOne
		}
	}
	b, err := NewBucket(-1, 1, alg, items, weights)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBucketChoosesMembers(t *testing.T) {
	for _, alg := range []Alg{UniformAlg, ListAlg, TreeAlg, StrawAlg, Straw2Alg} {
		b := newBucketT(t, alg, 7, nil)
		member := make(map[int]bool)
		for _, it := range b.Items {
			member[it] = true
		}
		for x := uint32(0); x < 200; x++ {
			for r := uint32(0); r < 5; r++ {
				it := b.Choose(x, r)
				if !member[it] {
					t.Fatalf("%v: chose non-member %d", alg, it)
				}
			}
		}
	}
}

func TestBucketChooseDeterministic(t *testing.T) {
	for _, alg := range []Alg{UniformAlg, ListAlg, TreeAlg, StrawAlg, Straw2Alg} {
		b1 := newBucketT(t, alg, 9, nil)
		b2 := newBucketT(t, alg, 9, nil)
		for x := uint32(0); x < 100; x++ {
			for r := uint32(0); r < 4; r++ {
				if b1.Choose(x, r) != b2.Choose(x, r) {
					t.Fatalf("%v: nondeterministic at x=%d r=%d", alg, x, r)
				}
			}
		}
	}
}

func TestBucketDistributionUniformWeights(t *testing.T) {
	const n = 8
	const samples = 40000
	for _, alg := range []Alg{UniformAlg, ListAlg, TreeAlg, StrawAlg, Straw2Alg} {
		b := newBucketT(t, alg, n, nil)
		counts := make(map[int]int)
		for x := uint32(0); x < samples; x++ {
			counts[b.Choose(x, 0)]++
		}
		want := samples / n
		for it, c := range counts {
			if c < want*7/10 || c > want*13/10 {
				t.Errorf("%v: item %d got %d picks, want ~%d", alg, it, c, want)
			}
		}
	}
}

func TestStraw2WeightProportionality(t *testing.T) {
	// weights 1:2:3 should give picks in ratio ~1:2:3.
	weights := []uint32{WeightOne, 2 * WeightOne, 3 * WeightOne}
	b, err := NewBucket(-1, 1, Straw2Alg, []int{0, 1, 2}, weights)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 60000
	counts := make([]int, 3)
	for x := uint32(0); x < samples; x++ {
		counts[b.Choose(x, 0)]++
	}
	total := float64(samples)
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / total
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("straw2 item %d share %.3f, want %.3f", i, got, want)
		}
	}
}

func TestTreeWeightProportionality(t *testing.T) {
	weights := []uint32{WeightOne, 3 * WeightOne}
	b, err := NewBucket(-1, 1, TreeAlg, []int{0, 1}, weights)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 40000
	counts := make([]int, 2)
	for x := uint32(0); x < samples; x++ {
		counts[b.Choose(x, 0)]++
	}
	share := float64(counts[1]) / samples
	if share < 0.70 || share > 0.80 {
		t.Errorf("tree heavy item share = %.3f, want ~0.75", share)
	}
}

func TestListWeightProportionality(t *testing.T) {
	weights := []uint32{WeightOne, 3 * WeightOne}
	b, err := NewBucket(-1, 1, ListAlg, []int{0, 1}, weights)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 40000
	counts := make([]int, 2)
	for x := uint32(0); x < samples; x++ {
		counts[b.Choose(x, 0)]++
	}
	share := float64(counts[1]) / samples
	if share < 0.70 || share > 0.80 {
		t.Errorf("list heavy item share = %.3f, want ~0.75", share)
	}
}

func TestUniformBucketPermutation(t *testing.T) {
	// For a fixed x, ranks 0..n-1 must produce a permutation of the items.
	b := newBucketT(t, UniformAlg, 6, nil)
	for x := uint32(0); x < 50; x++ {
		seen := make(map[int]bool)
		for r := uint32(0); r < 6; r++ {
			it := b.Choose(x, r)
			if seen[it] {
				t.Fatalf("x=%d: rank collision on item %d", x, it)
			}
			seen[it] = true
		}
	}
}

func TestUniformBucketRejectsUnequalWeights(t *testing.T) {
	_, err := NewBucket(-1, 1, UniformAlg, []int{0, 1}, []uint32{1, 2})
	if err == nil {
		t.Fatal("unequal weights accepted by uniform bucket")
	}
}

func TestStrawZeroWeightNeverChosen(t *testing.T) {
	for _, alg := range []Alg{StrawAlg, Straw2Alg} {
		weights := []uint32{WeightOne, 0, WeightOne}
		b, err := NewBucket(-1, 1, alg, []int{0, 1, 2}, weights)
		if err != nil {
			t.Fatal(err)
		}
		for x := uint32(0); x < 5000; x++ {
			if b.Choose(x, 0) == 1 {
				t.Fatalf("%v: zero-weight item chosen", alg)
			}
		}
	}
}

func TestSelectReplicated(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 4, OSDsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	rule := m.Rule("replicated_rule")
	hostOf := func(osd int) int { return osd / 4 }
	for x := uint32(0); x < 2000; x++ {
		osds, err := m.Select(rule, x, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(osds) != 3 {
			t.Fatalf("x=%d: got %d replicas, want 3: %v", x, len(osds), osds)
		}
		hosts := make(map[int]bool)
		for _, o := range osds {
			if o < 0 || o >= 16 {
				t.Fatalf("x=%d: bad osd %d", x, o)
			}
			if hosts[hostOf(o)] {
				t.Fatalf("x=%d: two replicas on host %d: %v", x, hostOf(o), osds)
			}
			hosts[hostOf(o)] = true
		}
	}
}

func TestSelectIndepRanks(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 8, OSDsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	rule := m.Rule("ec_rule")
	for x := uint32(0); x < 1000; x++ {
		osds, err := m.Select(rule, x, 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(osds) != 6 {
			t.Fatalf("indep returned %d ranks, want 6", len(osds))
		}
		seen := make(map[int]bool)
		for _, o := range osds {
			if o == ItemNone {
				t.Fatalf("x=%d: unplaceable rank in healthy cluster: %v", x, osds)
			}
			if seen[o] {
				t.Fatalf("x=%d: duplicate osd %d: %v", x, o, osds)
			}
			seen[o] = true
		}
	}
}

func TestSelectDeterministicProperty(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 4, OSDsPerHost: 8})
	if err != nil {
		t.Fatal(err)
	}
	rule := m.Rule("replicated_rule")
	f := func(x uint32) bool {
		a, err1 := m.Select(rule, x, 3, nil)
		b, err2 := m.Select(rule, x, 3, nil)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectBalancesAcrossOSDs(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 2, OSDsPerHost: 16})
	if err != nil {
		t.Fatal(err)
	}
	rule := m.Rule("replicated_rule")
	counts := make([]int, 32)
	const samples = 8000
	for x := uint32(0); x < samples; x++ {
		osds, err := m.Select(rule, x, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range osds {
			counts[o]++
		}
	}
	want := float64(samples*2) / 32
	for o, c := range counts {
		if float64(c) < want*0.7 || float64(c) > want*1.3 {
			t.Errorf("osd %d has %d placements, want ~%.0f", o, c, want)
		}
	}
}

func TestSelectFailedDeviceRemapped(t *testing.T) {
	m, _, err := BuildCluster(ClusterSpec{Hosts: 4, OSDsPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	rule := m.Rule("replicated_rule")
	reweight := make([]uint32, 16)
	for i := range reweight {
		reweight[i] = WeightOne
	}
	const failed = 5
	reweight[failed] = 0
	moved, total := 0, 0
	for x := uint32(0); x < 2000; x++ {
		before, _ := m.Select(rule, x, 3, nil)
		after, _ := m.Select(rule, x, 3, reweight)
		if len(after) != 3 {
			t.Fatalf("x=%d: degraded select returned %v", x, after)
		}
		for _, o := range after {
			if o == failed {
				t.Fatalf("x=%d: failed osd still selected: %v", x, after)
			}
		}
		total++
		if !sameSet(before, after) {
			moved++
		}
	}
	// Only mappings that touched the failed OSD (≈ 3/16 of them) plus a
	// small churn factor should move.
	if moved > total/2 {
		t.Errorf("failure of 1/16 OSDs moved %d/%d mappings", moved, total)
	}
	if moved == 0 {
		t.Error("no mappings moved after failure")
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]int)
	for _, v := range a {
		m[v]++
	}
	for _, v := range b {
		m[v]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestSelectStabilityUnderOSDLoss(t *testing.T) {
	// Straw2 property: removing one OSD from a flat bucket moves only the
	// placements that pointed at it.
	m1, _, err := FlatCluster(10, Straw2Alg)
	if err != nil {
		t.Fatal(err)
	}
	// The same cluster without device 9: straw2 draws per item, so a flat
	// bucket of devices 0..8 is the ten-device bucket with 9 removed.
	m2, _, err := FlatCluster(9, Straw2Alg)
	if err != nil {
		t.Fatal(err)
	}
	rule1, rule2 := m1.Rule("flat"), m2.Rule("flat")
	moved, had9 := 0, 0
	const samples = 4000
	for x := uint32(0); x < samples; x++ {
		a, _ := m1.Select(rule1, x, 1, nil)
		b, _ := m2.Select(rule2, x, 1, nil)
		if a[0] == 9 {
			had9++
			continue
		}
		if a[0] != b[0] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("straw2: %d placements moved that did not involve the removed osd", moved)
	}
	if had9 < samples/20 {
		t.Errorf("removed osd held only %d/%d placements", had9, samples)
	}
}

func TestRuleErrors(t *testing.T) {
	m, _, _ := BuildCluster(ClusterSpec{Hosts: 2, OSDsPerHost: 2})
	if _, err := m.Select(nil, 1, 1, nil); err == nil {
		t.Fatal("nil rule accepted")
	}
	if _, err := m.Select(m.Rule("replicated_rule"), 1, 0, nil); err == nil {
		t.Fatal("numRep 0 accepted")
	}
	bad := &Rule{Name: "bad", Steps: []Step{{Op: OpTake, Arg1: -99}}}
	if _, err := m.Select(bad, 1, 1, nil); err == nil {
		t.Fatal("unknown take bucket accepted")
	}
}

func TestTreeNodeHelpers(t *testing.T) {
	if nodeHeight(1) != 0 || nodeHeight(2) != 1 || nodeHeight(4) != 2 || nodeHeight(12) != 2 {
		t.Fatal("nodeHeight wrong")
	}
	if nodeParent(1) != 2 || nodeParent(3) != 2 || nodeParent(2) != 4 || nodeParent(6) != 4 {
		t.Fatal("nodeParent wrong")
	}
	if nodeLeft(2) != 1 || nodeRight(2) != 3 || nodeLeft(4) != 2 || nodeRight(4) != 6 {
		t.Fatal("left/right wrong")
	}
	if treeDepth(1) != 1 || treeDepth(2) != 2 || treeDepth(3) != 3 || treeDepth(4) != 3 {
		t.Fatalf("treeDepth wrong: %d %d %d %d",
			treeDepth(1), treeDepth(2), treeDepth(3), treeDepth(4))
	}
}

func TestBuildClusterShape(t *testing.T) {
	m, root, err := BuildCluster(ClusterSpec{Hosts: 2, OSDsPerHost: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxDevices() != 32 {
		t.Fatalf("MaxDevices = %d", m.MaxDevices())
	}
	rb := m.Bucket(root)
	if rb == nil || rb.Size() != 2 {
		t.Fatalf("root bucket wrong: %+v", rb)
	}
	if m.TotalWeight() != 32*WeightOne {
		t.Fatalf("TotalWeight = %d", m.TotalWeight())
	}
	if m.TypeName(TypeHost) != "host" || m.TypeName(99) != "type99" {
		t.Fatal("type names wrong")
	}
	if len(m.Buckets()) != 3 {
		t.Fatalf("bucket count = %d", len(m.Buckets()))
	}
}

func TestBuildClusterErrors(t *testing.T) {
	if _, _, err := BuildCluster(ClusterSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, _, err := FlatCluster(0, Straw2Alg); err == nil {
		t.Fatal("empty flat cluster accepted")
	}
}
