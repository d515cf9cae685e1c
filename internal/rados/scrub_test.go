package rados

import (
	"testing"

	"repro/internal/sim"
)

// scrubPool and backfill wait on the callback APIs from a test.
func scrubPool(eng *sim.Engine, sc *Scrubber, pool *Pool) (rep ScrubReport, err error) {
	eng.Wait(func(wake func()) {
		sc.ScrubPool(pool, func(r ScrubReport, e error) {
			rep, err = r, e
			wake()
		})
	})
	return rep, err
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

func TestScrubDetectsBitrot(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 3, 64)
	payload := []byte("important data that must survive")
	if err := writeObj(eng, cl, pool, "victim", 0, payload); err != nil {
		t.Fatal(err)
	}
	// Corrupt one replica directly in its store (silent bitrot).
	acting, _ := c.ActingSet(pool, c.PGOf(pool, "victim"))
	badOSD := acting[1]
	c.OSDs[badOSD].Store.Write("victim", 4, []byte{0xde, 0xad})

	report, err := scrubPool(eng, NewScrubber(c), pool)
	if err != nil {
		t.Fatal(err)
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
}

func TestScrubECParityDamage(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateECPool("e", 4, 2, 64)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	if err := writeObj(eng, cl, pool, "stripe", 0, payload); err != nil {
		t.Fatal(err)
	}
	// Corrupt one shard silently.
	acting, _ := c.ActingSet(pool, c.PGOf(pool, "stripe"))
	c.OSDs[acting[2]].Store.Write("stripe:0.s2", 10, []byte{0xff, 0xff, 0xff})

	report, err := scrubPool(eng, NewScrubber(c), pool)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if report.Clean() {
		t.Fatal("EC scrub missed shard damage")
	}
	if len(report.Inconsistencies) != 1 {
		t.Fatalf("inconsistencies: %v", report.Inconsistencies)
	}
	inc := report.Inconsistencies[0]
	if len(inc.BadOSDs) != 1 || inc.BadOSDs[0] != acting[2] {
		t.Fatalf("blamed %v, want [%d]", inc.BadOSDs, acting[2])
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
