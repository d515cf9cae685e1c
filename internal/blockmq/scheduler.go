package blockmq

import (
	"sort"

	"repro/internal/sim"
)

// Scheduler orders and merges requests between the software queues and the
// hardware contexts.
type Scheduler interface {
	// Name identifies the scheduler ("mq-deadline", "qos-dmclock", ...).
	Name() string
	// Insert stages a request for hardware context hctx. It may merge req
	// into an already-staged request, in which case it reports merged=true
	// and the caller must not dispatch req separately.
	Insert(hctx int, req *Request) (merged bool)
	// Next pops the next request to dispatch for hctx, or nil.
	Next(hctx int) *Request
	// Pending reports staged requests for hctx.
	Pending(hctx int) int
	// Cost is the CPU time charged per request passing through the
	// scheduler.
	Cost() sim.Duration
}

// DeadlineScheduler approximates mq-deadline: requests are kept sorted by
// offset per direction, contiguous requests merge, and reads are preferred
// over writes until a write has waited past its deadline.
type DeadlineScheduler struct {
	eng   *sim.Engine
	cost  sim.Duration
	wrTTL sim.Duration
	// per hctx, per direction, sorted by offset
	queues map[int]*deadlineQueues
	// Merge statistics.
	Merges uint64
}

type deadlineQueues struct {
	reads    []*Request
	writes   []*Request
	writeAge sim.Time // oldest staged write
}

// NewDeadlineScheduler returns an mq-deadline-like scheduler. cost is the
// per-request CPU charge (the overhead DeLiBA-K's bypass eliminates);
// writeDeadline bounds write starvation.
func NewDeadlineScheduler(eng *sim.Engine, cost, writeDeadline sim.Duration) *DeadlineScheduler {
	return &DeadlineScheduler{
		eng:    eng,
		cost:   cost,
		wrTTL:  writeDeadline,
		queues: make(map[int]*deadlineQueues),
	}
}

// Name implements Scheduler.
func (s *DeadlineScheduler) Name() string { return "mq-deadline" }

func (s *DeadlineScheduler) q(hctx int) *deadlineQueues {
	dq := s.queues[hctx]
	if dq == nil {
		dq = &deadlineQueues{}
		s.queues[hctx] = dq
	}
	return dq
}

// Insert implements Scheduler, attempting a back-merge with a staged
// contiguous request of the same direction.
func (s *DeadlineScheduler) Insert(hctx int, req *Request) bool {
	dq := s.q(hctx)
	list := &dq.reads
	if req.Op == OpWrite {
		list = &dq.writes
		if len(dq.writes) == 0 {
			dq.writeAge = s.eng.Now()
		}
	}
	// Back merge: an existing request ends where req begins.
	for _, other := range *list {
		if other.Op == req.Op && other.Off+int64(other.Len) == req.Off {
			other.Len += req.Len
			other.merged++
			other.callbacks = append(other.callbacks, req.callbacks...)
			s.Merges++
			return true
		}
		// Front merge: req ends where an existing request begins.
		if other.Op == req.Op && req.Off+int64(req.Len) == other.Off {
			other.Off = req.Off
			other.Len += req.Len
			other.merged++
			other.callbacks = append(other.callbacks, req.callbacks...)
			s.Merges++
			return true
		}
	}
	*list = append(*list, req)
	sort.SliceStable(*list, func(i, j int) bool { return (*list)[i].Off < (*list)[j].Off })
	return false
}

// Next implements Scheduler.
func (s *DeadlineScheduler) Next(hctx int) *Request {
	dq := s.q(hctx)
	// Writes past deadline go first; otherwise prefer reads.
	if len(dq.writes) > 0 && s.eng.Now().Sub(dq.writeAge) > s.wrTTL {
		return popFront(&dq.writes)
	}
	if len(dq.reads) > 0 {
		return popFront(&dq.reads)
	}
	if len(dq.writes) > 0 {
		return popFront(&dq.writes)
	}
	return nil
}

func popFront(list *[]*Request) *Request {
	req := (*list)[0]
	*list = (*list)[1:]
	return req
}

// Pending implements Scheduler.
func (s *DeadlineScheduler) Pending(hctx int) int {
	dq := s.q(hctx)
	return len(dq.reads) + len(dq.writes)
}

// Cost implements Scheduler.
func (s *DeadlineScheduler) Cost() sim.Duration { return s.cost }
