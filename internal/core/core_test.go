package core

import (
	"testing"

	"repro/internal/sim"
)

// buildNamed builds one of the five paper stacks by name, on the
// erasure-coded pool when ec is set.
func buildNamed(tb *Testbed, name string, ec bool) (Stack, error) {
	spec, err := ParseStackSpec(name)
	if err != nil {
		return nil, err
	}
	spec.EC = ec
	return tb.BuildStack(spec)
}

// do runs one I/O on the stack and waits for it.
func do(eng *sim.Engine, s Stack, op OpType, pattern Pattern, off int64, n int, cpu int) error {
	var err error
	eng.Wait(func(wake func()) {
		s.Submit(op, pattern, off, n, cpu, func(e error) {
			err = e
			wake()
		})
	})
	return err
}

// measureQD1 runs ops sequential operations at queue depth 1 and returns
// the mean latency.
func measureQD1(t *testing.T, name string, ec bool, op OpType, pattern Pattern, size, ops int) sim.Duration {
	t.Helper()
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := buildNamed(tb, name, ec)
	if err != nil {
		t.Fatal(err)
	}
	var total sim.Duration
	rng := sim.NewRNG(1)
	for i := 0; i < ops; i++ {
		var off int64
		if pattern == Rand {
			off = rng.Int63n(tb.Cfg.ImageBytes/int64(size)) * int64(size)
		} else {
			off = int64(i*size) % (tb.Cfg.ImageBytes - int64(size))
		}
		start := tb.Eng.Now()
		if err := do(tb.Eng, stack, op, pattern, off, size, i%DKInstances); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		total += tb.Eng.Now().Sub(start)
	}
	tb.Eng.Run()
	stack.Close()
	return total / sim.Duration(ops)
}

func TestDKHWLatencyAnchors(t *testing.T) {
	// Table II (DeLiBA-K, 4 kB replication): 40/52/64/68 µs.
	cases := []struct {
		op      OpType
		pattern Pattern
		lo, hi  sim.Duration
	}{
		{Read, Seq, 25 * sim.Microsecond, 55 * sim.Microsecond},
		{Write, Seq, 35 * sim.Microsecond, 65 * sim.Microsecond},
		{Read, Rand, 50 * sim.Microsecond, 80 * sim.Microsecond},
		{Write, Rand, 50 * sim.Microsecond, 85 * sim.Microsecond},
	}
	for _, c := range cases {
		got := measureQD1(t, "deliba-k-hw", false, c.op, c.pattern, 4096, 40)
		if got < c.lo || got > c.hi {
			t.Errorf("DK-HW %v-%v 4kB latency = %v, want [%v, %v]",
				c.pattern, c.op, got, c.lo, c.hi)
		}
	}
}

func TestGenerationLatencyOrdering(t *testing.T) {
	// At 4 kB the paper's ordering must hold per op/pattern:
	// DK < D2 < D1 (hardware) and DK-HW < DK-SW, D2-HW < D2-SW.
	type m = map[string]sim.Duration
	for _, c := range []struct {
		op      OpType
		pattern Pattern
	}{{Read, Rand}, {Write, Rand}, {Read, Seq}, {Write, Seq}} {
		lat := m{}
		for _, spec := range NamedSpecs() {
			lat[spec.Name] = measureQD1(t, spec.Name, false, c.op, c.pattern, 4096, 30)
		}
		if !(lat["deliba-k-hw"] < lat["deliba-2-hw"] && lat["deliba-2-hw"] < lat["deliba-1-hw"]) {
			t.Errorf("%v-%v: HW ordering violated: DK=%v D2=%v D1=%v",
				c.pattern, c.op, lat["deliba-k-hw"], lat["deliba-2-hw"], lat["deliba-1-hw"])
		}
		if lat["deliba-k-hw"] >= lat["deliba-k-sw"] {
			t.Errorf("%v-%v: DK-HW (%v) not faster than DK-SW (%v)",
				c.pattern, c.op, lat["deliba-k-hw"], lat["deliba-k-sw"])
		}
		if lat["deliba-k-sw"] >= lat["deliba-2-sw"] {
			t.Errorf("%v-%v: DK-SW (%v) not faster than D2-SW (%v)",
				c.pattern, c.op, lat["deliba-k-sw"], lat["deliba-2-sw"])
		}
	}
}

func TestSoftwareBaselineAnchors(t *testing.T) {
	// Fig 3: 4 kB random read ~85 µs (DK-SW) vs ~130 µs (D2-SW);
	// random write ~80 µs vs ~98 µs.
	rrDK := measureQD1(t, "deliba-k-sw", false, Read, Rand, 4096, 40)
	rrD2 := measureQD1(t, "deliba-2-sw", false, Read, Rand, 4096, 40)
	rwDK := measureQD1(t, "deliba-k-sw", false, Write, Rand, 4096, 40)
	rwD2 := measureQD1(t, "deliba-2-sw", false, Write, Rand, 4096, 40)
	check := func(name string, got, want sim.Duration) {
		lo := want * 7 / 10
		hi := want * 13 / 10
		if got < lo || got > hi {
			t.Errorf("%s = %v, want ~%v (±30%%)", name, got, want)
		}
	}
	check("DK-SW rand read", rrDK, 85*sim.Microsecond)
	check("D2-SW rand read", rrD2, 130*sim.Microsecond)
	check("DK-SW rand write", rwDK, 80*sim.Microsecond)
	check("D2-SW rand write", rwD2, 98*sim.Microsecond)
}

func TestECFasterThanReplicationOnDK(t *testing.T) {
	// Table II: DeLiBA-K EC latencies (38/47/59/60) are slightly below the
	// replication ones (40/52/64/68).
	for _, c := range []struct {
		op      OpType
		pattern Pattern
	}{{Write, Rand}, {Write, Seq}} {
		repl := measureQD1(t, "deliba-k-hw", false, c.op, c.pattern, 4096, 30)
		ec := measureQD1(t, "deliba-k-hw", true, c.op, c.pattern, 4096, 30)
		// The paper's EC latencies sit at or just below replication's; our
		// 2-replica testbed narrows the byte-volume gap, so allow EC to
		// land within 20% (EXPERIMENTS.md discusses the residual).
		if ec > repl*120/100 {
			t.Errorf("%v-%v: EC latency %v ≫ replication %v", c.pattern, c.op, ec, repl)
		}
	}
}

func TestD1RejectsEC(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildNamed(tb, "deliba-1-hw", true); err == nil {
		t.Fatal("DeLiBA-1 EC stack built; the paper says D1 had no EC accelerators")
	}
}

func TestSeqFasterThanRand(t *testing.T) {
	for _, name := range []string{"deliba-k-hw", "deliba-k-sw"} {
		seq := measureQD1(t, name, false, Read, Seq, 4096, 30)
		rand := measureQD1(t, name, false, Read, Rand, 4096, 30)
		if seq >= rand {
			t.Errorf("%s: seq read (%v) not faster than rand read (%v)", name, seq, rand)
		}
	}
}

func TestLargerBlocksHigherLatency(t *testing.T) {
	small := measureQD1(t, "deliba-k-hw", false, Write, Seq, 4096, 20)
	big := measureQD1(t, "deliba-k-hw", false, Write, Seq, 131072, 20)
	if big <= small {
		t.Errorf("128kB write (%v) not slower than 4kB (%v)", big, small)
	}
}

// TestStackNames builds every row of the spec table by its name and
// checks the stack reports that name.
func TestStackNames(t *testing.T) {
	for _, spec := range NamedSpecs() {
		tb, err := NewTestbed(DefaultTestbedConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := buildNamed(tb, spec.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != spec.Name {
			t.Errorf("stack name = %q, want %q", s.Name(), spec.Name)
		}
		s.Close()
	}
}
