package core

import "testing"

// TestCardPathRunsNoProcs drives 1,000 ops through the DeLiBA-K stacks —
// the card path plain and behind the LSVD cache, the software target, and
// the ablation grid's three mutations of deliba-k-hw (interrupt-mode rings,
// one ring instance, the mq-deadline elevator) — and checks they run
// without a Proc or a goroutine (see runsNoProcs).
func TestCardPathRunsNoProcs(t *testing.T) {
	for _, spec := range []string{
		"deliba-k-hw",
		"deliba-k-hw+cache-lsvd",
		"deliba-k-sw",
		"deliba-k-hw+interrupt",
		"deliba-k-hw+instances=1",
		"deliba-k-hw+mq-deadline",
	} {
		t.Run(spec, func(t *testing.T) { runsNoProcs(t, DefaultTestbedConfig(), spec) })
	}
}

// TestCardPathOpAllocs pins the steady state of a warm QD1 op on the
// DeLiBA-K card path — io_uring, DMQ, UIFD/QDMA, the card's placement
// kernel and FSM, the fan-out — and of a read hit in the LSVD cache tier
// in front of it, at zero heap allocations per op: the caller's callback
// is bound once, and every per-I/O record on the path is pooled, so a
// single closure brought back on any layer fails the test. The ops cycle
// over a few offsets so object names, placements and (for the cache) the
// read-cache extents are interned, memoised and filled by the warm-up.
func TestCardPathOpAllocs(t *testing.T) {
	cases := []struct {
		name, spec string
		op         OpType
	}{
		{"deliba-k-hw/read", "deliba-k-hw", Read},
		{"deliba-k-hw/write", "deliba-k-hw", Write},
		{"deliba-k-hw+cache-lsvd/read-hit", "deliba-k-hw+cache-lsvd", Read},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb, st := buildSpec(t, DefaultTestbedConfig(), c.spec)
			var failed error
			done := func(err error) {
				if err != nil {
					failed = err
				}
			}
			i := 0
			op := func() {
				off := int64(i%16) * (4 << 20)
				i++
				st.Submit(c.op, Rand, off, 4096, i%DKInstances, done)
				tb.Eng.Run()
			}
			for k := 0; k < 100; k++ {
				op()
			}
			if cache := CacheOf(st); cache != nil {
				if s := cache.Stats(); s.Hits == 0 {
					t.Fatalf("warm-up left no read hits: %+v", s)
				}
			}
			allocs := testing.AllocsPerRun(300, op)
			if failed != nil {
				t.Fatal(failed)
			}
			if allocs > 0 {
				t.Errorf("warm %s op allocated %.2f/op, want 0", c.name, allocs)
			}
		})
	}
}
