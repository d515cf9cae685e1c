package experiments

import (
	"testing"
)

// TestScaleSweepSmoke runs the quick scale sweep serially and on three
// workers: the digests must be equal, and every cell sane. Its healthy
// run completes ops without failing one; its failure run fails none
// either, and backfills every PG the mark-out moved. runFleet itself
// rejects a run that leaves an event pending once the monitor stops.
func TestScaleSweepSmoke(t *testing.T) {
	cfg := Quick()
	var serial, par *ScaleSweepResult
	var err error
	withParallelism(t, 1, func() { serial, err = ScaleSweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	withParallelism(t, 3, func() { par, err = ScaleSweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range serial.Cells {
		if c.KIOPS <= 0 || c.TotalOps == 0 {
			t.Fatalf("degenerate healthy cell: %+v", c)
		}
		if c.Failed != 0 || c.FailFailed != 0 {
			t.Fatalf("%d OSDs: %d healthy and %d failure-run ops failed", c.OSDs, c.Failed, c.FailFailed)
		}
		if c.MovedPGs == 0 || c.BackfilledPGs != c.MovedPGs {
			t.Fatalf("recovery incomplete at %d OSDs: %d/%d PGs",
				c.OSDs, c.BackfilledPGs, c.MovedPGs)
		}
	}
	if serial.Cells[0].OSDs >= serial.Cells[len(serial.Cells)-1].OSDs {
		t.Fatal("size axis not increasing")
	}
	if got, want := par.Digest(), serial.Digest(); got != want {
		t.Fatalf("scale sweep digest %016x on 3 workers != %016x serial", got, want)
	}
}
