package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

const tenGbE = 10e9

func newFabricT(t *testing.T) (*sim.Engine, *Fabric, *Host, *Host) {
	t.Helper()
	eng := sim.NewEngine()
	f := NewFabric(eng, 5*sim.Microsecond)
	a, err := f.AddHost("client", tenGbE, SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AddHost("server", tenGbE, SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	return eng, f, a, b
}

func TestWireTime(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNIC(eng, tenGbE)
	// 1250 bytes at 10 Gb/s = 1 µs.
	if got := n.WireTime(1250); got != sim.Microsecond {
		t.Fatalf("WireTime = %v, want 1µs", got)
	}
}

func TestSendLatencyComposition(t *testing.T) {
	eng, f, a, b := newFabricT(t)
	const n = 4096
	var arrived sim.Time
	f.Send(a, b, n, func() { arrived = eng.Now() })
	eng.Run()
	want := a.Stack.Cost(n) + a.NIC.WireTime(n) + f.Propagation() + b.Stack.Cost(n)
	if got := sim.Duration(arrived); got != want {
		t.Fatalf("arrival = %v, want %v", got, want)
	}
}

func TestNICSerialization(t *testing.T) {
	eng, f, a, b := newFabricT(t)
	const n = 125000 // 100 µs of wire at 10 Gb/s
	var arrivals []sim.Time
	for i := 0; i < 3; i++ {
		f.Send(a, b, n, func() { arrivals = append(arrivals, eng.Now()) })
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	wire := a.NIC.WireTime(n)
	// Successive messages must be spaced by at least the wire time.
	for i := 1; i < 3; i++ {
		gap := arrivals[i].Sub(arrivals[i-1])
		if gap < wire {
			t.Fatalf("gap %d = %v, want >= %v", i, gap, wire)
		}
	}
	st := a.NIC.Stats()
	if st.TxMsgs != 3 || st.TxBytes != 3*n {
		t.Fatalf("stats: msgs=%d bytes=%d", st.TxMsgs, st.TxBytes)
	}
	if st.Busy != 3*wire {
		t.Fatalf("busy = %v, want %v", st.Busy, 3*wire)
	}
}

// TestStackWorkersRunInParallel drives a 4-worker receiver (the OSD node
// configuration) with 5 messages that reach its NIC at the same instant:
// four are processed side by side, the fifth waits for the worker that
// frees first.
func TestStackWorkersRunInParallel(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 5*sim.Microsecond)
	dst, _ := f.AddHost("osd", tenGbE, SoftwareStack)
	dst.SetStackWorkers(4)
	const n = 4096
	var arrivals []sim.Time
	for i := 0; i < 5; i++ {
		src, _ := f.AddHost(fmt.Sprintf("client%d", i), tenGbE, StackCost{})
		f.Send(src, dst, n, func() { arrivals = append(arrivals, eng.Now()) })
	}
	eng.Run()
	cost := dst.Stack.Cost(n)
	atNIC := sim.Time(0).Add(dst.NIC.WireTime(n) + f.Propagation())
	want := []sim.Time{atNIC.Add(cost), atNIC.Add(cost), atNIC.Add(cost), atNIC.Add(cost), atNIC.Add(2 * cost)}
	if !slices.Equal(arrivals, want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	if got := dst.StackBusyTime(); got != 5*cost {
		t.Fatalf("stack busy = %v, want %v", got, 5*cost)
	}
}

func TestRTLStackCheaperThanSoftware(t *testing.T) {
	for _, n := range []int{64, 4096, 131072} {
		if RTLStack.Cost(n) >= SoftwareStack.Cost(n) {
			t.Fatalf("RTL stack not cheaper at %d bytes", n)
		}
	}
}

func TestSendWait(t *testing.T) {
	eng, f, a, b := newFabricT(t)
	var done sim.Time
	eng.Wait(func(wake func()) { f.Send(a, b, 1000, wake) })
	done = eng.Now()
	eng.Run()
	if done == 0 {
		t.Fatal("the wait on Send never returned")
	}
}

func TestRTTSymmetricComposition(t *testing.T) {
	eng, f, a, b := newFabricT(t)
	_ = eng
	rtt := f.RTT(a, b, 100, 100)
	// Request and response identical → RTT = 2x one-way.
	oneWay := a.Stack.Cost(100) + a.NIC.WireTime(100) + f.Propagation() + b.Stack.Cost(100)
	if rtt != 2*oneWay {
		t.Fatalf("RTT = %v, want %v", rtt, 2*oneWay)
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 0)
	if _, err := f.AddHost("x", tenGbE, SoftwareStack); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddHost("x", tenGbE, SoftwareStack); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if f.Host("x") == nil || f.Host("missing") != nil {
		t.Fatal("Host lookup wrong")
	}
}

func TestStackCostScalesWithSize(t *testing.T) {
	small := SoftwareStack.Cost(1024)
	big := SoftwareStack.Cost(128 * 1024)
	if big <= small {
		t.Fatal("per-KiB cost not applied")
	}
	wantDelta := sim.Duration(int64(SoftwareStack.PerKiB) * 127)
	if big-small != wantDelta {
		t.Fatalf("delta = %v, want %v", big-small, wantDelta)
	}
}

func TestConcurrentSendersShareWire(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 0)
	a, _ := f.AddHost("a", tenGbE, StackCost{})
	b, _ := f.AddHost("b", tenGbE, StackCost{})
	// 10 concurrent 125 kB messages: total wire time 10 * 100µs = 1 ms.
	var last sim.Time
	for i := 0; i < 10; i++ {
		f.Send(a, b, 125000, func() {
			if eng.Now() > last {
				last = eng.Now()
			}
		})
	}
	eng.Run()
	if got := sim.Duration(last); got < sim.Millisecond {
		t.Fatalf("10 x 100µs messages finished in %v, want >= 1ms", got)
	}
}
