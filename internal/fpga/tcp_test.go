package fpga

import (
	"testing"

	"repro/internal/sim"
)

func newTCP(t *testing.T) (*sim.Engine, *TCPStack) {
	t.Helper()
	eng := sim.NewEngine()
	st, err := NewTCPStack(eng, DefaultTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, st
}

func TestTCPConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewTCPStack(eng, TCPConfig{MaxSessions: 0, MTU: 1518}); err == nil {
		t.Fatal("zero sessions accepted")
	}
	if _, err := NewTCPStack(eng, TCPConfig{MaxSessions: 1, MTU: 20}); err != ErrBadMTU {
		t.Fatal("tiny MTU accepted")
	}
	if _, err := NewTCPStack(eng, TCPConfig{MaxSessions: 1, MTU: 10000}); err != ErrBadMTU {
		t.Fatal("oversized MTU accepted")
	}
}

func TestSegmentationMath(t *testing.T) {
	_, st := newTCP(t)
	p := st.Payload()
	if p != 1518-58 {
		t.Fatalf("payload = %d", p)
	}
	if st.Segments(0) != 1 {
		t.Fatal("ack should be one segment")
	}
	if st.Segments(p) != 1 || st.Segments(p+1) != 2 {
		t.Fatal("segment rounding wrong")
	}
	// 128 kB at standard MTU ≈ 90 segments.
	if got := st.Segments(131072); got != (131072+p-1)/p {
		t.Fatalf("128k segments = %d", got)
	}
	// Jumbo frames need far fewer.
	eng := sim.NewEngine()
	cfg := DefaultTCPConfig()
	cfg.MTU = MaxPacketJumbo
	jumbo, _ := NewTCPStack(eng, cfg)
	if jumbo.Segments(131072) >= st.Segments(131072)/4 {
		t.Fatalf("jumbo segments %d not ≪ standard %d",
			jumbo.Segments(131072), st.Segments(131072))
	}
}

func TestSessionLifecycle(t *testing.T) {
	eng, st := newTCP(t)
	var sess *Session
	st.Connect("node0:6800", func(s *Session, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		sess = s
	})
	eng.Run()
	if sess == nil || st.Sessions() != 1 {
		t.Fatal("connect failed")
	}
	// Handshake consumed pipeline cycles.
	if eng.Now() == 0 {
		t.Fatal("connect was free")
	}
	if err := st.Close(sess.ID); err != nil {
		t.Fatal(err)
	}
	if st.Sessions() != 0 {
		t.Fatal("session leaked")
	}
	if err := st.Close(sess.ID); err != ErrNoSession {
		t.Fatal("double close accepted")
	}
	_, _, opened, closed := st.Stats()
	if opened != 1 || closed != 1 {
		t.Fatalf("churn stats %d/%d", opened, closed)
	}
}

func TestSessionTableCapacity(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultTCPConfig()
	cfg.MaxSessions = 2
	st, _ := NewTCPStack(eng, cfg)
	errs := 0
	for i := 0; i < 3; i++ {
		st.Connect("peer", func(s *Session, err error) {
			if err == ErrSessionTableFull {
				errs++
			}
		})
	}
	eng.Run()
	if st.Sessions() != 2 || errs != 1 {
		t.Fatalf("sessions=%d errs=%d", st.Sessions(), errs)
	}
}

func TestSendPipelineSerializes(t *testing.T) {
	eng, st := newTCP(t)
	var sess *Session
	st.Connect("peer", func(s *Session, err error) { sess = s })
	eng.Run()
	var finishes []sim.Time
	for i := 0; i < 3; i++ {
		st.Send(sess.ID, 64*1024, func(err error) {
			if err != nil {
				t.Error(err)
			}
			finishes = append(finishes, eng.Now())
		})
	}
	eng.Run()
	if len(finishes) != 3 {
		t.Fatalf("sends = %d", len(finishes))
	}
	perMsg := st.cycles(st.Segments(64*1024) * st.cfg.CyclesPerSegment)
	for i := 1; i < 3; i++ {
		if finishes[i].Sub(finishes[i-1]) < perMsg {
			t.Fatal("pipeline overlapped messages")
		}
	}
	segs, bytes, _, _ := st.Stats()
	if segs != 3*uint64(st.Segments(64*1024)) || bytes != 3*64*1024 {
		t.Fatalf("stats segs=%d bytes=%d", segs, bytes)
	}
}

func TestSendOnClosedSession(t *testing.T) {
	eng, st := newTCP(t)
	var gotErr error
	st.Send(99, 100, func(err error) { gotErr = err })
	eng.Run()
	if gotErr != ErrNoSession {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestAckTracking(t *testing.T) {
	eng, st := newTCP(t)
	var sess *Session
	st.Connect("peer", func(s *Session, err error) { sess = s })
	eng.Run()
	st.Send(sess.ID, 1000, func(error) {})
	eng.Run()
	if sess.Outstanding() != 1000 {
		t.Fatalf("outstanding = %d", sess.Outstanding())
	}
	if err := st.Ack(sess.ID, 600); err != nil {
		t.Fatal(err)
	}
	if sess.Outstanding() != 400 {
		t.Fatalf("outstanding = %d", sess.Outstanding())
	}
	if err := st.Ack(sess.ID, 500); err == nil {
		t.Fatal("over-ack accepted")
	}
	if err := st.Ack(42, 1); err != ErrNoSession {
		t.Fatal("ack on missing session accepted")
	}
}
