package sim

import "testing"

func TestServerZeroValueIsOneIdleLane(t *testing.T) {
	var s Server
	if got := s.Book(5, 10); got != 15 {
		t.Fatalf("first job ends at %v, want 15", got)
	}
	// One lane: a second job offered at the same instant queues behind it.
	if got := s.Book(5, 10); got != 25 {
		t.Fatalf("second job ends at %v, want 25", got)
	}
}

func TestServerSetLanesZeroIsOneLane(t *testing.T) {
	var s Server
	s.SetLanes(0)
	s.Book(0, 10)
	if got := s.Book(0, 10); got != 20 {
		t.Fatalf("second job ends at %v, want 20 (one lane)", got)
	}
}

func TestServerStartsAtOfferOrLaneFree(t *testing.T) {
	var s Server
	s.Book(0, 10) // lane busy until 10
	// Offered while the lane is busy: starts when it frees.
	if got := s.Book(4, 3); got != 13 {
		t.Fatalf("queued job ends at %v, want 13", got)
	}
	// Offered after the lane went idle: starts at the offer.
	if got := s.Book(100, 3); got != 103 {
		t.Fatalf("idle-lane job ends at %v, want 103", got)
	}
}

func TestServerPicksEarliestFreeLane(t *testing.T) {
	var s Server
	s.SetLanes(3)
	// Same-instant offers fill lanes 0, 1, 2 in order (lowest index on a
	// tie), so the lanes free at 30, 10 and 20.
	for _, d := range []Duration{30, 10, 20} {
		if got := s.Book(0, d); got != Time(d) {
			t.Fatalf("job of %v ends at %v, want %v", d, got, d)
		}
	}
	// Lane 1 frees first, and stays first after the 4th job (15 < 20).
	if got := s.Book(0, 5); got != 15 {
		t.Fatalf("4th job ends at %v, want 15 (lane 1)", got)
	}
	if got := s.Book(0, 5); got != 20 {
		t.Fatalf("5th job ends at %v, want 20 (lane 1 again)", got)
	}
	// Lanes 1 and 2 now both free at 20: the tie goes to lane 1, and the
	// next job takes lane 2.
	if got := s.Book(0, 1); got != 21 {
		t.Fatalf("6th job ends at %v, want 21 (lane 1 on the tie)", got)
	}
	if got := s.Book(0, 1); got != 21 {
		t.Fatalf("7th job ends at %v, want 21 (lane 2)", got)
	}
}

func TestServerBusySumsEveryLane(t *testing.T) {
	var s Server
	s.SetLanes(2)
	for _, d := range []Duration{7, 11, 13} {
		s.Book(0, d)
	}
	s.Book(1000, 2) // idle gaps are not busy time
	if got := s.Busy(); got != 7+11+13+2 {
		t.Fatalf("Busy = %v, want 33", got)
	}
}

func TestServerBookAllocatesNothing(t *testing.T) {
	var s Server
	s.SetLanes(4)
	var at Time
	if n := testing.AllocsPerRun(100, func() { at = s.Book(at, 3) }); n != 0 {
		t.Fatalf("Book allocates %v per call", n)
	}
}
