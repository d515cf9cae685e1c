package sim

import (
	"strings"
	"testing"
)

// TestWaitWakeInsideRegister: a wake invoked synchronously from register
// returns from Wait without running an event.
func TestWaitWakeInsideRegister(t *testing.T) {
	e := NewEngine()
	sibling := false
	e.Schedule(0, func() { sibling = true })
	e.Wait(func(wake func()) { wake() })
	if sibling || e.Executed() != 0 || e.Pending() != 1 {
		t.Fatalf("Wait ran %d events and left %d pending, want 0 and 1",
			e.Executed(), e.Pending())
	}
	e.Run()
	if !sibling {
		t.Fatal("the pending event did not run after Wait")
	}
}

// TestWaitWakeFromEvent: a wake from an event returns once that event
// finishes, with the clock at the wake and later events still pending,
// including a same-time one scheduled after it.
func TestWaitWakeFromEvent(t *testing.T) {
	e := NewEngine()
	var wake func()
	e.Schedule(42, func() { wake() })
	e.Schedule(42, func() {})
	e.Schedule(50, func() {})
	e.Wait(func(w func()) { wake = w })
	if e.Now() != 42 || e.Executed() != 1 || e.Pending() != 2 {
		t.Fatalf("returned at %v after %d events with %d pending, want 42, 1, 2",
			e.Now(), e.Executed(), e.Pending())
	}
	wake() // a late wake does nothing: the next run is not cut short
	if e.Run(); e.Executed() != 3 {
		t.Fatalf("Executed = %d after Run, want 3", e.Executed())
	}
}

// TestWaitWakeViaSchedule: waking through Schedule(0, wake) costs exactly
// one extra event and returns at the same virtual time.
func TestWaitWakeViaSchedule(t *testing.T) {
	e := NewEngine()
	var wake func()
	e.Schedule(42, func() { e.Schedule(0, wake) })
	e.Schedule(42, func() {})
	e.Wait(func(w func()) { wake = w })
	if e.Now() != 42 || e.Executed() != 3 || e.Pending() != 0 {
		t.Fatalf("returned at %v after %d events with %d pending, want 42, 3, 0",
			e.Now(), e.Executed(), e.Pending())
	}
}

// mustPanic runs fn and returns its panic message, failing if it returns.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg, _ = r.(string)
	}()
	fn()
	return ""
}

// TestWaitDrainPanics: a queue that drains before the wake is a lost
// wake-up, reported with the virtual time.
func TestWaitDrainPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(7*Microsecond, func() {})
	msg := mustPanic(t, func() { e.Wait(func(func()) {}) })
	if !strings.Contains(msg, "drained at 7.000µs") {
		t.Fatalf("panic %q does not name the virtual time", msg)
	}
}

// TestWaitShardsPanics: a Shards engine cannot stop mid-window, so Wait
// refuses it.
func TestWaitShardsPanics(t *testing.T) {
	_, e := NewShards(2, Microsecond).AddDomainAt("d", 0)
	mustPanic(t, func() { e.Wait(func(wake func()) { wake() }) })
}
