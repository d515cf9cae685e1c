package sim

import (
	"errors"
	"testing"
)

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

func TestCompletionAwait(t *testing.T) {
	e := NewEngine()
	c := e.NewCompletion()
	var got any
	var gotErr error
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got, gotErr = p.Await(c)
		at = p.Now()
	})
	e.Schedule(42, func() { c.Complete("done", nil) })
	e.Run()
	if got != "done" || gotErr != nil || at != 42 {
		t.Fatalf("got=%v err=%v at=%v", got, gotErr, at)
	}
	if c.At() != 42 {
		t.Fatalf("Completion.At = %v, want 42", c.At())
	}
}

func TestAwaitAlreadyFired(t *testing.T) {
	e := NewEngine()
	c := e.NewCompletion()
	errBoom := errors.New("boom")
	e.Schedule(5, func() { c.Complete(nil, errBoom) })
	e.Schedule(10, func() {
		e.Spawn("late", func(p *Proc) {
			_, err := p.Await(c)
			if err != errBoom {
				t.Errorf("err = %v, want boom", err)
			}
			if p.Now() != 10 {
				t.Errorf("await of fired completion advanced time to %v", p.Now())
			}
		})
	})
	e.Run()
}

func TestCompletionMultipleWaiters(t *testing.T) {
	e := NewEngine()
	c := e.NewCompletion()
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Await(c)
			woken++
		})
	}
	cbRan := false
	c.OnComplete(func(val any, err error) {
		cbRan = true
		if val != 7 {
			t.Errorf("callback val = %v", val)
		}
	})
	e.Schedule(100, func() { c.Complete(7, nil) })
	e.Run()
	if woken != 5 || !cbRan {
		t.Fatalf("woken=%d cbRan=%v", woken, cbRan)
	}
}

func TestCompletionDoublePanics(t *testing.T) {
	e := NewEngine()
	c := e.NewCompletion()
	c.Complete(1, nil)
	defer func() {
		if recover() == nil {
			t.Error("double Complete did not panic")
		}
	}()
	c.Complete(2, nil)
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
