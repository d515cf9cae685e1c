package rados

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// scrubPool, repair and backfill wait on the callback APIs from a test.
func scrubPool(eng *sim.Engine, sc *Scrubber, pool *Pool) (rep ScrubReport, err error) {
	eng.Wait(func(wake func()) {
		sc.ScrubPool(pool, func(r ScrubReport, e error) {
			rep, err = r, e
			wake()
		})
	})
	return rep, err
}

func repair(eng *sim.Engine, sc *Scrubber, pool *Pool, rep ScrubReport) (fixed int, err error) {
	eng.Wait(func(wake func()) {
		sc.Repair(pool, rep, func(n int, e error) {
			fixed, err = n, e
			wake()
		})
	})
	return fixed, err
}

func backfill(eng *sim.Engine, bf *Backfiller, pool *Pool, before, after []uint32) (rep BackfillReport, err error) {
	eng.Wait(func(wake func()) {
		bf.BackfillPool(pool, before, after, func(r BackfillReport, e error) {
			rep, err = r, e
			wake()
		})
	})
	return rep, err
}

func TestScrubCleanPool(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 3, 64)
	var rep ScrubReport
	for i := 0; i < 5; i++ {
		writeObj(eng, cl, pool, objName(i), 0, []byte("payload-"+objName(i)))
	}
	var err error
	rep, err = scrubPool(eng, NewScrubber(c), pool)
	if err != nil {
		t.Error(err)
	}
	eng.Run()
	if !rep.Clean() || rep.ObjectsScanned != 5 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestScrubDetectsAndRepairsBitrot(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 3, 64)
	payload := []byte("important data that must survive")
	var report ScrubReport
	var fixed int
	var badOSD int
	if err := writeObj(eng, cl, pool, "victim", 0, payload); err != nil {
		t.Fatal(err)
	}
	// Corrupt one replica directly in its store (silent bitrot).
	acting, _ := c.ActingSet(pool, c.PGOf(pool, "victim"))
	badOSD = acting[1]
	c.OSDs[badOSD].Store.Write("victim", 4, []byte{0xde, 0xad})

	sc := NewScrubber(c)
	var err error
	report, err = scrubPool(eng, sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err = repair(eng, sc, pool, report)
	if err != nil {
		t.Error(err)
	}
	eng.Run()
	if report.Clean() {
		t.Fatal("scrub missed the corrupted replica")
	}
	if len(report.Inconsistencies) != 1 {
		t.Fatalf("inconsistencies: %v", report.Inconsistencies)
	}
	inc := report.Inconsistencies[0]
	if len(inc.BadOSDs) != 1 || inc.BadOSDs[0] != badOSD {
		t.Fatalf("blamed %v, want [%d]", inc.BadOSDs, badOSD)
	}
	if fixed != 1 {
		t.Fatalf("fixed = %d", fixed)
	}
	// Post-repair scrub is clean and the copy matches.
	rep2, err := scrubPool(eng, NewScrubber(c), pool)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatal("pool still inconsistent after repair")
	}
	got, _ := c.OSDs[badOSD].Store.Read("victim", 0, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("repaired copy = %q", got)
	}
}

func TestScrubECParityDamage(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateECPool("e", 4, 2, 64)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	var report ScrubReport
	var fixed int
	if err := writeObj(eng, cl, pool, "stripe", 0, payload); err != nil {
		t.Fatal(err)
	}
	// Corrupt one shard silently.
	acting, _ := c.ActingSet(pool, c.PGOf(pool, "stripe"))
	c.OSDs[acting[2]].Store.Write("stripe:0.s2", 10, []byte{0xff, 0xff, 0xff})

	sc := NewScrubber(c)
	var err error
	report, err = scrubPool(eng, sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err = repair(eng, sc, pool, report)
	if err != nil {
		t.Error(err)
	}
	eng.Run()
	if report.Clean() {
		t.Fatal("EC scrub missed shard damage")
	}
	if fixed == 0 {
		t.Fatal("repair fixed nothing")
	}
	// The stripe must read back intact.
	got, err := readObj(eng, cl, pool, "stripe", 0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stripe wrong after EC repair")
	}
}

func TestScrubChargesTime(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 2, 64)
	var before, after sim.Time
	writeObj(eng, cl, pool, "o", 0, []byte("x"))
	before = eng.Now()
	scrubPool(eng, NewScrubber(c), pool)
	after = eng.Now()
	eng.Run()
	if after.Sub(before) < 100*sim.Microsecond { // 2 copies x 50µs
		t.Fatalf("scrub consumed only %v", after.Sub(before))
	}
}
