package rados

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestScrubCleanPool(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 3, 64)
	var rep ScrubReport
	eng.Spawn("io", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			writeObj(p, cl, pool, objName(i), 0, []byte("payload-"+objName(i)))
		}
		var err error
		rep, err = NewScrubber(c).ScrubPool(p, pool)
		if err != nil {
			t.Error(err)
		}
	})
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
	eng.Spawn("io", func(p *sim.Proc) {
		if err := writeObj(p, cl, pool, "victim", 0, payload); err != nil {
			t.Error(err)
			return
		}
		// Corrupt one replica directly in its store (silent bitrot).
		acting, _ := c.ActingSet(pool, c.PGOf(pool, "victim"))
		badOSD = acting[1]
		c.OSDs[badOSD].Store.Write("victim", 4, []byte{0xde, 0xad})

		sc := NewScrubber(c)
		var err error
		report, err = sc.ScrubPool(p, pool)
		if err != nil {
			t.Error(err)
			return
		}
		fixed, err = sc.Repair(p, pool, report)
		if err != nil {
			t.Error(err)
		}
	})
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
	var clean bool
	eng.Spawn("verify", func(p *sim.Proc) {
		rep2, err := NewScrubber(c).ScrubPool(p, pool)
		if err != nil {
			t.Error(err)
			return
		}
		clean = rep2.Clean()
	})
	eng.Run()
	if !clean {
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
	eng.Spawn("io", func(p *sim.Proc) {
		if err := writeObj(p, cl, pool, "stripe", 0, payload); err != nil {
			t.Error(err)
			return
		}
		// Corrupt one shard silently.
		acting, _ := c.ActingSet(pool, c.PGOf(pool, "stripe"))
		c.OSDs[acting[2]].Store.Write("stripe:0.s2", 10, []byte{0xff, 0xff, 0xff})

		sc := NewScrubber(c)
		var err error
		report, err = sc.ScrubPool(p, pool)
		if err != nil {
			t.Error(err)
			return
		}
		fixed, err = sc.Repair(p, pool, report)
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if report.Clean() {
		t.Fatal("EC scrub missed shard damage")
	}
	if fixed == 0 {
		t.Fatal("repair fixed nothing")
	}
	// The stripe must read back intact.
	var got []byte
	eng.Spawn("read", func(p *sim.Proc) {
		var err error
		got, err = readObj(p, cl, pool, "stripe", 0, len(payload))
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("stripe wrong after EC repair")
	}
}

func TestScrubChargesTime(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("p", 2, 64)
	var before, after sim.Time
	eng.Spawn("io", func(p *sim.Proc) {
		writeObj(p, cl, pool, "o", 0, []byte("x"))
		before = p.Now()
		NewScrubber(c).ScrubPool(p, pool)
		after = p.Now()
	})
	eng.Run()
	if after.Sub(before) < 100*sim.Microsecond { // 2 copies x 50µs
		t.Fatalf("scrub consumed only %v", after.Sub(before))
	}
}
