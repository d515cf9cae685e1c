package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
)

// newResilientHarness builds a jitter-free testbed with the default
// resilience policy armed and a client-side Fanout bound to its shared
// counters and jitter stream.
func newResilientHarness(t testing.TB) (*Testbed, *Fanout) {
	t.Helper()
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	cfg.Resilience = DefaultResilienceConfig()
	cfg.Resilience.Seed = 1
	tbd, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host, err := tbd.Fabric.AddHost("res-client", 10e9, cfg.CM.HostStack)
	if err != nil {
		t.Fatal(err)
	}
	return tbd, &Fanout{Cluster: tbd.Cluster, From: host, Res: tbd.Res}
}

// crossNodeObject scans for an object whose replicated acting set spans both
// server nodes, so a fault confined to the primary's node leaves a reachable
// replica.
func crossNodeObject(t *testing.T, tbd *Testbed) (string, []int) {
	t.Helper()
	c := tbd.Cluster
	for i := 0; i < 1000; i++ {
		obj := fmt.Sprintf("obj%d", i)
		acting, err := c.ActingSet(tbd.ReplPool, c.PGOf(tbd.ReplPool, obj))
		if err != nil {
			t.Fatal(err)
		}
		if len(acting) >= 2 && c.NodeOf(acting[0]) != c.NodeOf(acting[1]) {
			return obj, acting
		}
	}
	t.Fatal("no object with a cross-node acting set in 1000 candidates")
	return "", nil
}

// TestReadFailoverAfterDeadline drops every request to the primary's node:
// attempt 0 must die at its deadline and the retry must fail over to the
// replica on the other node.
func TestReadFailoverAfterDeadline(t *testing.T) {
	tbd, f := newResilientHarness(t)
	obj, acting := crossNodeObject(t, tbd)
	primaryNode := tbd.Cluster.NodeOf(acting[0])
	tbd.Fabric.SetFaultHook(func(src, dst *netsim.Host, n int) bool {
		return src == f.From && dst == primaryNode
	})
	var gotErr error
	var doneAt sim.Time
	completed := false
	tbd.Eng.Schedule(0, func() {
		f.ReadReplicatedR(tbd.ReplPool, tbd.Cluster.PGOf(tbd.ReplPool, obj), obj, 0, 4096, rados.ReqOpts{}, func(err error) {
			gotErr, doneAt, completed = err, tbd.Eng.Now(), true
		})
	})
	tbd.Eng.Run()
	if !completed {
		t.Fatal("read never completed")
	}
	if gotErr != nil {
		t.Fatalf("read failed: %v", gotErr)
	}
	res := tbd.Res.Counters
	if res.DeadlineExceeded != 1 || res.Retries != 1 || res.Failovers != 1 {
		t.Errorf("counters = %+v, want 1 deadline, 1 retry, 1 failover", res)
	}
	if min := sim.Time(0).Add(tbd.Cfg.Resilience.Deadline); doneAt < min {
		t.Errorf("completed at %v, before the first deadline %v could have fired", doneAt, min)
	}
}

// TestWriteRetriesAfterCrash crashes the primary while its copy of a
// replicated write is in service: the attempt must fail with ErrOSDDown and
// the retry must commit on the surviving replica.
func TestWriteRetriesAfterCrash(t *testing.T) {
	tbd, f := newResilientHarness(t)
	obj, acting := crossNodeObject(t, tbd)
	osd := tbd.Cluster.OSDs[acting[0]]
	osd.SetSlow(500) // stretch service into the ms range so the crash lands mid-op
	var gotErr error
	completed := false
	tbd.Eng.Schedule(0, func() {
		f.WriteReplicatedR(tbd.ReplPool, tbd.Cluster.PGOf(tbd.ReplPool, obj), obj, 0, 4096, rados.ReqOpts{}, func(err error) {
			gotErr, completed = err, true
		})
	})
	tbd.Eng.Schedule(500*sim.Microsecond, func() {
		if osd.InFlight() == 0 {
			t.Error("crash scheduled but no write was in flight on the primary")
		}
		osd.SetUp(false)
	})
	tbd.Eng.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	if gotErr != nil {
		t.Fatalf("write failed after retry: %v", gotErr)
	}
	if res := tbd.Res.Counters; res.Retries != 1 || res.DeadlineExceeded != 0 {
		t.Errorf("counters = %+v, want exactly 1 retry and no deadline", res)
	}
	if osd.Crashes() != 1 {
		t.Errorf("osd crashes = %d, want 1", osd.Crashes())
	}
}

// TestDeadlineExhaustsRetries drops every message: all attempts time out and
// the op must surface ErrDeadline after MaxRetries re-issues.
func TestDeadlineExhaustsRetries(t *testing.T) {
	tbd, f := newResilientHarness(t)
	tbd.Fabric.SetFaultHook(func(src, dst *netsim.Host, n int) bool { return true })
	var gotErr error
	completed := false
	tbd.Eng.Schedule(0, func() {
		f.ReadReplicatedR(tbd.ReplPool, tbd.Cluster.PGOf(tbd.ReplPool, "obj"), "obj", 0, 4096, rados.ReqOpts{}, func(err error) {
			gotErr, completed = err, true
		})
	})
	tbd.Eng.Run()
	if !completed {
		t.Fatal("read never completed")
	}
	if !errors.Is(gotErr, rados.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", gotErr)
	}
	cfg := tbd.Cfg.Resilience
	res := tbd.Res.Counters
	if want := uint64(cfg.MaxRetries + 1); res.DeadlineExceeded != want {
		t.Errorf("DeadlineExceeded = %d, want %d (every attempt)", res.DeadlineExceeded, want)
	}
	if res.Retries != uint64(cfg.MaxRetries) {
		t.Errorf("Retries = %d, want %d", res.Retries, cfg.MaxRetries)
	}
	assertDrained(t, tbd)
}

// assertDrained checks a drained deadline run left no event behind: every
// deadline timer was cancelled or fired, and no abandoned attempt is still
// scheduled.
func assertDrained(t *testing.T, tbd *Testbed) {
	t.Helper()
	if n := tbd.Eng.Pending(); n != 0 {
		t.Errorf("Pending() = %d after drain, want 0", n)
	}
}

// TestECDegradedReadCounts takes one data-shard OSD down: the EC read must
// gather a parity shard instead, report needDecode, and count the degraded
// read without any retry.
func TestECDegradedReadCounts(t *testing.T) {
	tbd, f := newResilientHarness(t)
	c := tbd.Cluster
	obj := "ec-obj"
	acting, err := c.ActingSet(tbd.ECPool, c.PGOf(tbd.ECPool, obj))
	if err != nil {
		t.Fatal(err)
	}
	c.OSDs[acting[0]].SetUp(false) // rank 0 is a data shard in 4+2
	var gotErr error
	needDecode := false
	completed := false
	tbd.Eng.Schedule(0, func() {
		f.ReadECR(tbd.ECPool, obj, 0, 64<<10, rados.ReqOpts{}, func(nd bool, err error) {
			needDecode, gotErr, completed = nd, err, true
		})
	})
	tbd.Eng.Run()
	if !completed {
		t.Fatal("EC read never completed")
	}
	if gotErr != nil {
		t.Fatalf("degraded EC read failed: %v", gotErr)
	}
	if !needDecode {
		t.Error("needDecode = false with a data shard down")
	}
	if res := tbd.Res.Counters; res.DegradedReads != 1 || res.Retries != 0 {
		t.Errorf("counters = %+v, want 1 degraded read and no retries", res)
	}
}

// newSWClientHarness wires a rados.Client with the testbed's retry policy —
// the software-baseline resilience path.
func newSWClientHarness(t *testing.T) (*Testbed, *rados.Client) {
	t.Helper()
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	cfg.Resilience = DefaultResilienceConfig()
	cfg.Resilience.Seed = 1
	tbd, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rados.NewClient(tbd.Cluster, "sw-client", cfg.CM.NICBitsPerSec, cfg.CM.HostStack)
	if err != nil {
		t.Fatal(err)
	}
	cl.Functional = false
	cl.Retry = tbd.Res
	return tbd, cl
}

// TestClientWriteRetriesAfterCrash exercises the software client: the primary crashes mid-service, the aborted attempt surfaces
// ErrOSDDown inside the client's retry chain, and the re-issue lands on the
// new primary.
func TestClientWriteRetriesAfterCrash(t *testing.T) {
	tbd, cl := newSWClientHarness(t)
	obj, acting := crossNodeObject(t, tbd)
	osd := tbd.Cluster.OSDs[acting[0]]
	osd.SetSlow(500)
	var gotErr error
	completed := false
	tbd.Eng.Schedule(0, func() {
		cl.WriteAsync(tbd.ReplPool, obj, 0, make([]byte, 4096), rados.ReqOpts{}, func(err error) {
			gotErr, completed = err, true
		})
	})
	tbd.Eng.Schedule(500*sim.Microsecond, func() { osd.SetUp(false) })
	tbd.Eng.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	if gotErr != nil {
		t.Fatalf("write failed after retry: %v", gotErr)
	}
	if res := tbd.Res.Counters; res.Retries != 1 {
		t.Errorf("counters = %+v, want exactly 1 retry", res)
	}
}

// TestClientReadDeadlineFailsOver drops client requests to the primary's
// node: the software read must time out, retry against the replica on the
// other node, and count the failover.
func TestClientReadDeadlineFailsOver(t *testing.T) {
	tbd, cl := newSWClientHarness(t)
	obj, acting := crossNodeObject(t, tbd)
	primaryNode := tbd.Cluster.NodeOf(acting[0])
	tbd.Fabric.SetFaultHook(func(src, dst *netsim.Host, n int) bool {
		return src == cl.Host && dst == primaryNode
	})
	var gotErr error
	completed := false
	tbd.Eng.Schedule(0, func() {
		cl.ReadAsync(tbd.ReplPool, obj, 0, 4096, rados.ReqOpts{}, func(_ []byte, err error) {
			gotErr, completed = err, true
		})
	})
	tbd.Eng.Run()
	if !completed {
		t.Fatal("read never completed")
	}
	if gotErr != nil {
		t.Fatalf("read failed: %v", gotErr)
	}
	res := tbd.Res.Counters
	if res.DeadlineExceeded != 1 || res.Retries != 1 || res.Failovers != 1 {
		t.Errorf("counters = %+v, want 1 deadline, 1 retry, 1 failover", res)
	}
	assertDrained(t, tbd)
}

// warmOpAllocs returns the heap allocations of a warm QD1 op on spec: a
// mix of 4 KiB reads and writes (every third op a write) cycling over a
// few objects, with the caller's callback bound once.
func warmOpAllocs(t *testing.T, cfg TestbedConfig, spec string) float64 {
	t.Helper()
	tb, st := buildSpec(t, cfg, spec)
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
		st.Submit(kind, Rand, off, 4096, i%DKInstances, done)
		tb.Eng.Run()
	}
	for k := 0; k < 100; k++ {
		op()
	}
	allocs := testing.AllocsPerRun(1000, op)
	if failed != nil {
		t.Fatal(failed)
	}
	return allocs
}

// TestResilientOpAllocs pins a warm op under the default retry policy at
// the allocations of the same op without one: the policy's runs and
// attempts and the fan-out's retried ops are pooled and their callbacks
// bound once, so arming resilience costs no allocation per op.
func TestResilientOpAllocs(t *testing.T) {
	for _, spec := range []string{"deliba-k-hw", "deliba-1-hw", "deliba-k-hw+ec", "deliba-k-sw"} {
		t.Run(spec, func(t *testing.T) {
			plain := warmOpAllocs(t, DefaultTestbedConfig(), spec)
			cfg := DefaultTestbedConfig()
			cfg.Resilience = DefaultResilienceConfig()
			cfg.Resilience.Seed = 1
			resilient := warmOpAllocs(t, cfg, spec)
			t.Logf("%.3f allocs/op without resilience, %.3f with", plain, resilient)
			if resilient > plain+0.05 {
				t.Errorf("warm resilient op allocated %.3f/op, want <= %.3f (%.3f without resilience + 0.05)", resilient, plain+0.05, plain)
			}
		})
	}
}
