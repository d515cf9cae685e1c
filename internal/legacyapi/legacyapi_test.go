package legacyapi

import "testing"

func TestPathCost(t *testing.T) {
	c := CostProfile{
		SyscallCost:       1000,
		ContextSwitches:   6,
		ContextSwitchCost: 1500,
		Copies:            2,
		CopyPerKiB:        100,
	}
	// 4 KiB: 1000 + 6*1500 + 2*(100*4) = 10800
	if got := c.PathCost(4096); got != 10800 {
		t.Fatalf("PathCost = %v, want 10800", got)
	}
	// Cost grows with context switches: the D1-vs-DK gap.
	c2 := c
	c2.ContextSwitches = 0
	if c2.PathCost(4096) >= c.PathCost(4096) {
		t.Fatal("context switches not charged")
	}
}
