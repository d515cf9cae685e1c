package deliba

import "testing"

// buildStack parses a stack spec string and builds it on tb.
func buildStack(tb *Testbed, s string) (Stack, error) {
	spec, err := ParseStackSpec(s)
	if err != nil {
		return nil, err
	}
	return tb.BuildStack(spec)
}

// TestPublicAPIQuickstart exercises the facade the README documents.
func TestPublicAPIQuickstart(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	stack, err := buildStack(tb, "deliba-k-hw")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(tb, stack, Workload{
		ReadPct:    0,
		Random:     true,
		BlockSize:  4096,
		QueueDepth: 8,
		Jobs:       3,
		Ops:        100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.KIOPS() <= 0 || res.MBps() <= 0 {
		t.Fatal("no throughput measured")
	}
	if res.Lat.Mean() < 10*Microsecond {
		t.Fatalf("latency %v implausibly low", res.Lat.Mean())
	}
}

// TestPublicAPIComparison runs the headline DK-vs-D2 comparison through the
// facade only.
func TestPublicAPIComparison(t *testing.T) {
	run := func(name string) float64 {
		tb, err := NewTestbed(DefaultTestbedConfig())
		if err != nil {
			t.Fatal(err)
		}
		stack, err := buildStack(tb, name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorkload(tb, stack, Workload{
			ReadPct: 0, Random: true, BlockSize: 4096,
			QueueDepth: 16, Jobs: 3, Ops: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MBps()
	}
	dk := run("deliba-k-hw")
	d2 := run("deliba-2-hw")
	if dk <= d2 {
		t.Fatalf("DK (%.1f MB/s) not above D2 (%.1f MB/s)", dk, d2)
	}
}

// TestPublicAPIErasure covers the EC pool path and the D1 restriction.
func TestPublicAPIErasure(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	stack, err := buildStack(tb, "deliba-k-hw+ec")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(tb, stack, Workload{
		ReadPct: 50, Random: true, BlockSize: 8192,
		QueueDepth: 4, Jobs: 2, Ops: 60,
	})
	if err != nil || res.Errors != 0 {
		t.Fatalf("EC run: %v, errors=%d", err, res.Errors)
	}
	tb2, _ := NewTestbed(DefaultTestbedConfig())
	if _, err := buildStack(tb2, "deliba-1-hw+ec"); err == nil {
		t.Fatal("DeLiBA-1 EC stack should be rejected")
	}
}
