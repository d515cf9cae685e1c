package core

import (
	"testing"

	"repro/internal/rados"
)

// TestCardPlacementMatchesActingSet: the card's CRUSH kernel selects on the
// same input as Cluster.ActingSet, so for every PG of both testbed pools
// the card's answer is the acting set the fan-out then writes to.
func TestCardPlacementMatchesActingSet(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*rados.Pool{tb.ReplPool, tb.ECPool} {
		shell, err := buildShell(tb, pool, false)
		if err != nil {
			t.Fatal(err)
		}
		card := make([][]int, pool.PGs)
		for pg := uint32(0); pg < pool.PGs; pg++ {
			pg := pg
			shell.Straw2.Select(pg, uint32(pool.ID), pool.Width(), func(osds []int, err error) {
				if err != nil {
					t.Errorf("pool %s pg %d: %v", pool.Name, pg, err)
				}
				card[pg] = osds
			})
		}
		tb.Eng.Run()
		for pg := uint32(0); pg < pool.PGs; pg++ {
			want, err := tb.Cluster.ActingSet(pool, pg)
			if err != nil {
				t.Fatal(err)
			}
			if len(card[pg]) != len(want) {
				t.Fatalf("pool %s pg %d: card %v, ActingSet %v", pool.Name, pg, card[pg], want)
			}
			for i := range want {
				if card[pg][i] != want[i] {
					t.Fatalf("pool %s pg %d: card %v, ActingSet %v", pool.Name, pg, card[pg], want)
				}
			}
		}
	}
}
