package sim

// Server is a FIFO station whose service time is known when work is
// offered: a wire, a DMA bus, a pool of protocol workers, an accelerator
// FSM. Book returns when the work finishes and schedules nothing, so the
// caller posts the one event it needs at that instant. Work whose hold
// time is only known at its end takes a Resource instead.
//
// The zero value is one idle lane.
type Server struct {
	// first is when lane 0 next goes idle; rest holds lanes 1..n-1.
	first Time
	rest  []Time
	busy  Duration
}

// SetLanes sets the number of parallel lanes (at least one) and idles them
// all. Call it during setup, before anything is booked.
func (s *Server) SetLanes(n int) {
	s.first = 0
	s.rest = make([]Time, max(n, 1)-1)
}

// Book serves d on the lane that goes idle first (the lowest-numbered one
// on a tie), starting no earlier than at, and returns when it finishes.
func (s *Server) Book(at Time, d Duration) Time {
	lane := &s.first
	for i := range s.rest {
		if s.rest[i] < *lane {
			lane = &s.rest[i]
		}
	}
	*lane = max(at, *lane).Add(d)
	s.busy += d
	return *lane
}

// Busy returns the service booked so far, summed over every lane.
func (s *Server) Busy() Duration { return s.busy }
