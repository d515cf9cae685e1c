package sim

import "testing"

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		wake = append(wake, p.Now())
		p.Sleep(20)
		wake = append(wake, p.Now())
	})
	e.Run()
	if len(wake) != 2 || wake[0] != 10 || wake[1] != 30 {
		t.Fatalf("wake times = %v, want [10 30]", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(10)
		order = append(order, "a20")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a20"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestBlockWakeInsideRegister: a wake invoked synchronously from register
// returns from Block without suspending the proc and without an event.
func TestBlockWakeInsideRegister(t *testing.T) {
	e := NewEngine()
	sibling := false
	e.Spawn("waiter", func(p *Proc) {
		e.Schedule(0, func() { sibling = true })
		before := e.Executed()
		p.Block(func(wake func()) { wake() })
		if sibling {
			t.Error("Block suspended: a same-time event ran before it returned")
		}
		if e.Executed() != before || e.Pending() != 1 {
			t.Errorf("Block ran %d events and left %d pending, want 0 and 1",
				e.Executed()-before, e.Pending())
		}
	})
	e.Run()
	if e.Executed() != 2 || e.Procs() != 0 {
		t.Fatalf("Executed = %d, Procs = %d, want 2 and 0", e.Executed(), e.Procs())
	}
}

// blockOn runs one proc that waits (wait = true) or not on a callback
// event at t=42, whose wake is wrapped by hop, and reports the events
// executed, when the proc resumed, and whether it resumed before the
// callback's event returned.
func blockOn(t *testing.T, wait bool, hop func(e *Engine, wake func()) func()) (uint64, Time, bool) {
	t.Helper()
	e := NewEngine()
	var (
		at       Time
		returned bool
		inside   bool
		wake     func()
	)
	e.Spawn("waiter", func(p *Proc) {
		if !wait {
			return
		}
		p.Block(func(w func()) { wake = hop(e, w) })
		at, inside = p.Now(), !returned
	})
	e.Schedule(42, func() {
		if wake != nil {
			wake()
		}
		returned = true
	})
	e.Run()
	if e.Procs() != 0 || e.Pending() != 0 {
		t.Fatalf("Procs = %d, Pending = %d after drain", e.Procs(), e.Pending())
	}
	return e.Executed(), at, inside
}

// TestBlockWakeFromEvent: a wake from an event resumes the proc inside that
// event, adding no event to the callback's own.
func TestBlockWakeFromEvent(t *testing.T) {
	direct := func(_ *Engine, wake func()) func() { return wake }
	alone, _, _ := blockOn(t, false, direct)
	got, at, inside := blockOn(t, true, direct)
	if at != 42 || !inside {
		t.Fatalf("resumed at %v (inside the callback's event: %v), want 42, true", at, inside)
	}
	if got != alone {
		t.Fatalf("Executed = %d, want %d as for the callback alone", got, alone)
	}
}

// TestBlockWakeViaSchedule: waking through Schedule(0, wake) costs exactly
// one extra event and resumes at the same virtual time, after the
// callback's event.
func TestBlockWakeViaSchedule(t *testing.T) {
	alone, _, _ := blockOn(t, false, nil)
	hop := func(e *Engine, wake func()) func() {
		return func() { e.Schedule(0, wake) }
	}
	got, at, inside := blockOn(t, true, hop)
	if at != 42 || inside {
		t.Fatalf("resumed at %v (inside the callback's event: %v), want 42, false", at, inside)
	}
	if got != alone+1 {
		t.Fatalf("Executed = %d, want %d (one hop over the callback alone)", got, alone+1)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childAt = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childAt != 15 {
		t.Fatalf("child woke at %v, want 15", childAt)
	}
}
