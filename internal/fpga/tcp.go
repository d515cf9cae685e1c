package fpga

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// The RTL TCP/IP TX/RX path of DeLiBA-K (paper §IV-D): a hardware session
// table with a bounded number of concurrent connections, MTU segmentation,
// and cycle-accurate per-segment pipeline occupancy at the 260 MHz CMAC
// clock. The netsim stack-cost profile abstracts this pipeline for the
// fabric model; this module is the structural view the cost profile is
// derived from, used by the session-management tests and the dfx/net
// tooling.

// TCPConfig sizes the hardware stack.
type TCPConfig struct {
	// MaxSessions is the session-table capacity (BRAM-bounded).
	MaxSessions int
	// MTU selects standard (1518) or jumbo (9018) framing.
	MTU int
	// ClockHz is the datapath clock (CMAC domain).
	ClockHz float64
	// CyclesPerSegment is the pipeline occupancy per transmitted segment.
	CyclesPerSegment int
	// CyclesPerConnect is the handshake processing cost.
	CyclesPerConnect int
}

// DefaultTCPConfig matches the paper's datapath: 260 MHz, standard MTU,
// a 1k-session table.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		MaxSessions:      1024,
		MTU:              MaxPacketStandard,
		ClockHz:          CMACClockHz,
		CyclesPerSegment: 180,
		CyclesPerConnect: 900,
	}
}

// Errors.
var (
	ErrSessionTableFull = errors.New("fpga: TCP session table full")
	ErrNoSession        = errors.New("fpga: no such TCP session")
	ErrBadMTU           = errors.New("fpga: MTU out of range")
)

// Session is one hardware TCP connection.
type Session struct {
	ID   int
	Peer string
	// seq/acked track bytes handed to/acknowledged by the pipeline.
	seq   uint64
	acked uint64
	open  bool
}

// Outstanding returns unacknowledged bytes.
func (s *Session) Outstanding() uint64 { return s.seq - s.acked }

// TCPStack is the hardware session manager.
type TCPStack struct {
	eng  *sim.Engine
	cfg  TCPConfig
	tab  map[int]*Session
	next int

	// pipeNextFree serializes the TX pipeline.
	pipeNextFree sim.Time

	// Stats.
	segments uint64
	bytes    uint64
	opened   uint64
	closed   uint64
}

// NewTCPStack builds the stack.
func NewTCPStack(eng *sim.Engine, cfg TCPConfig) (*TCPStack, error) {
	if cfg.MaxSessions <= 0 {
		return nil, fmt.Errorf("fpga: bad session capacity %d", cfg.MaxSessions)
	}
	if cfg.MTU < MinPacketBytes || cfg.MTU > MaxPacketJumbo {
		return nil, ErrBadMTU
	}
	return &TCPStack{eng: eng, cfg: cfg, tab: make(map[int]*Session)}, nil
}

// Sessions returns the live session count.
func (t *TCPStack) Sessions() int { return len(t.tab) }

// Stats returns transmitted segments and bytes plus session churn.
func (t *TCPStack) Stats() (segments, bytes, opened, closed uint64) {
	return t.segments, t.bytes, t.opened, t.closed
}

// headerBytes per segment (Ethernet+IP+TCP).
const headerBytes = 54 + 4 // header + FCS

// Payload returns the usable payload per segment for the configured MTU.
func (t *TCPStack) Payload() int { return t.cfg.MTU - headerBytes }

// Segments returns how many segments a message of n bytes needs.
func (t *TCPStack) Segments(n int) int {
	if n <= 0 {
		return 1 // a bare header (ack)
	}
	p := t.Payload()
	return (n + p - 1) / p
}

// cycles converts pipeline cycles to a duration.
func (t *TCPStack) cycles(n int) sim.Duration {
	return sim.Duration(float64(n) / t.cfg.ClockHz * 1e9)
}

// Connect opens a hardware session to a peer; done receives the session.
func (t *TCPStack) Connect(peer string, done func(*Session, error)) {
	if len(t.tab) >= t.cfg.MaxSessions {
		t.eng.Schedule(0, func() { done(nil, ErrSessionTableFull) })
		return
	}
	id := t.next
	t.next++
	s := &Session{ID: id, Peer: peer, open: true}
	t.tab[id] = s
	t.opened++
	t.eng.Schedule(t.cycles(t.cfg.CyclesPerConnect), func() { done(s, nil) })
}

// Close releases a session's table entry.
func (t *TCPStack) Close(id int) error {
	s, ok := t.tab[id]
	if !ok {
		return ErrNoSession
	}
	s.open = false
	delete(t.tab, id)
	t.closed++
	return nil
}

// Send segments n bytes onto the session's TX pipeline and calls done when
// the last segment leaves the pipeline (wire/propagation belong to the
// fabric model, not here).
func (t *TCPStack) Send(id int, n int, done func(error)) {
	s, ok := t.tab[id]
	if !ok {
		t.eng.Schedule(0, func() { done(ErrNoSession) })
		return
	}
	segs := t.Segments(n)
	occupancy := t.cycles(segs * t.cfg.CyclesPerSegment)
	start := t.eng.Now()
	if t.pipeNextFree > start {
		start = t.pipeNextFree
	}
	t.pipeNextFree = start.Add(occupancy)
	s.seq += uint64(n)
	t.segments += uint64(segs)
	t.bytes += uint64(n)
	t.eng.At(t.pipeNextFree, func() { done(nil) })
}

// Ack acknowledges n bytes on a session (driven by the RX path).
func (t *TCPStack) Ack(id int, n int) error {
	s, ok := t.tab[id]
	if !ok {
		return ErrNoSession
	}
	if s.acked+uint64(n) > s.seq {
		return fmt.Errorf("fpga: ack beyond seq on session %d", id)
	}
	s.acked += uint64(n)
	return nil
}
