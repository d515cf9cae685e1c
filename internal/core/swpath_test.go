package core

import (
	"runtime"
	"testing"
	"time"
)

// buildSpec wires a testbed and a stack from a stack-spec string.
func buildSpec(t *testing.T, cfg TestbedConfig, spec string) (*Testbed, Stack) {
	t.Helper()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ParseStackSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tb, st
}

// settledGoroutines waits (up to a second) for goroutines that earlier
// tests left exiting to finish — until the count stops falling or reaches
// want — and reports the live count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n && want == 0 {
			break
		}
		n = m
	}
	return n
}

// TestSoftwarePathRunsNoProcs drives 1,000 ops through every stack with a
// software data path — the NBD daemon's three datapaths and the DK-SW ring
// target, plain and split-domain — and checks the requests run as event
// chains (see runsNoProcs).
func TestSoftwarePathRunsNoProcs(t *testing.T) {
	cases := []struct {
		name  string
		split bool
	}{
		{"deliba-1-hw", false},
		{"deliba-2-hw", false},
		{"deliba-2-sw", false},
		{"deliba-k-sw", false},
		{"deliba-2-sw", true},
		{"deliba-k-sw", true},
	}
	for _, c := range cases {
		name := c.name
		cfg := DefaultTestbedConfig()
		if c.split {
			name += "/split"
			cfg = splitConfig()
		}
		t.Run(name, func(t *testing.T) { runsNoProcs(t, cfg, c.name) })
	}
}

// runsNoProcs builds spec, drives 1,000 mixed ops through it at QD4, and
// checks the stack runs without a single Proc: none after BuildStack (the
// ring reapers are CQE-drain events, the cache flusher a chain), none live
// at any completion or after the drain, and no goroutine left once the
// stack is closed.
func runsNoProcs(t *testing.T, cfg TestbedConfig, spec string) {
	goroutines := settledGoroutines(0)
	tb, st := buildSpec(t, cfg, spec)
	if n := tb.Eng.Procs(); n != 0 {
		t.Errorf("Procs after BuildStack = %d, want 0", n)
	}
	const ops, qd = 1000, 4
	issued, completed, most := 0, 0, 0
	var issue func()
	done := func(err error) {
		if err != nil {
			t.Errorf("op failed: %v", err)
		}
		completed++
		most = max(most, tb.Eng.Procs())
		if issued < ops {
			issue()
		}
	}
	issue = func() {
		op := Read
		if issued%3 == 0 {
			op = Write
		}
		off := int64(issued*7919%4096) * 4096
		issued++
		st.Submit(op, Rand, off, 4096, issued%qd, done)
	}
	for i := 0; i < qd; i++ {
		issue()
	}
	tb.Eng.Run()
	if most > 0 {
		t.Errorf("%d Procs live at a completion, want 0", most)
	}
	if completed != ops {
		t.Fatalf("completed %d of %d ops", completed, ops)
	}
	if n := tb.Eng.Procs(); n != 0 {
		t.Errorf("Procs after drain = %d, want 0", n)
	}
	st.Close()
	tb.Eng.Run()
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Errorf("goroutines after Close = %d, want at most %d", n, goroutines)
	}
}

// TestSoftwarePathOpAllocs pins the steady state of a warm QD1 op on the
// software data paths — the DeLiBA-2 NBD daemon over the client library,
// and io_uring into the DK-SW ring target — at no more than one heap
// allocation beyond the caller's own callback (which the test binds once).
// The op cycles over a few offsets so object names and placements are
// interned and memoised by the warm-up.
func TestSoftwarePathOpAllocs(t *testing.T) {
	for _, spec := range []string{"deliba-2-sw", "deliba-k-sw"} {
		t.Run(spec, func(t *testing.T) {
			tb, st := buildSpec(t, DefaultTestbedConfig(), spec)
			var failed error
			done := func(err error) {
				if err != nil {
					failed = err
				}
			}
			i := 0
			op := func() {
				kind := Read
				if i%3 == 0 {
					kind = Write
				}
				off := int64(i%16) * (4 << 20)
				i++
				st.Submit(kind, Rand, off, 4096, 0, done)
				tb.Eng.Run()
			}
			for k := 0; k < 100; k++ {
				op()
			}
			allocs := testing.AllocsPerRun(300, op)
			if failed != nil {
				t.Fatal(failed)
			}
			if allocs > 1 {
				t.Errorf("warm %s op allocated %.2f/op, want <= 1", spec, allocs)
			}
		})
	}
}
