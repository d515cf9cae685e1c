// Package raft implements a deterministic per-PG multi-Raft replication
// backend: every placement group runs its own Raft group over the PG's
// acting set, replacing the primary-copy "wait for every replica" protocol
// with commit-on-majority, leader leases for local reads, and seeded
// randomized election timeouts — the fastblock design argument, testable
// head-to-head against primary-copy under the fault injector.
//
// Everything is driven by the sim engine: timers are engine events,
// messages are fabric sends (so partitions, flaps and loss disrupt Raft
// exactly as they disrupt the data path), and every random draw comes from
// a per-member RNG seeded from (cell seed, PG, member), so a (seed,
// scenario) pair replays bit-identically at any -parallel setting. No map
// is ever iterated on an event path.
//
// The backend is a timing and availability model, like the fan-out's
// rados.Zeros payloads: member OSD writes charge real service time (journal fsync) against
// the member's OSD, but log entries carry sizes, not payload bytes.
package raft

import (
	"errors"

	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrNoLeader fails a routed op after the redirect budget is exhausted:
// the group is mid-election (or has no reachable quorum). Clients treat it
// like a deadline — back off and retry — which paces election storms.
var ErrNoLeader = errors.New("raft: no leader")

// snapshotBytes is the wire size charged for an InstallSnapshot transfer
// (the PG's object map manifest; payload data is already on the follower
// or restored by backfill outside this model).
const snapshotBytes = 4096

// Config parameterizes every group in a System. The defaults keep the
// classic Raft inequality heartbeat << election-min and the lease
// correctness requirement Lease < ElectionMin (a re-elected leader cannot
// exist before a granted lease expires — see DESIGN §9.11).
type Config struct {
	// ElectionMin/ElectionMax bound the randomized election timeout.
	ElectionMin sim.Duration
	ElectionMax sim.Duration
	// Heartbeat is the leader's empty-AppendEntries period.
	Heartbeat sim.Duration
	// Lease is how long a quorum round licenses local reads, measured from
	// the round's start. Must be < ElectionMin for lease-read correctness.
	Lease sim.Duration
	// SnapshotEvery compacts the log once this many committed entries have
	// accumulated past the snapshot edge (0 disables compaction).
	SnapshotEvery int
	// MaxBatch bounds entries per catch-up AppendEntries message.
	MaxBatch int
	// ActivityWindow is how long a routed op keeps a group's timers armed.
	// Heartbeat and election timers rearm only inside the window, so an
	// idle group quiesces and the engine's event queue can drain — the
	// simulation's termination condition. Client traffic (including retry
	// attempts during faults) keeps pumping the window forward, which is
	// exactly when leader liveness matters.
	ActivityWindow sim.Duration
	// Seed drives every member's election-timeout stream.
	Seed uint64
}

// DefaultConfig returns timing tuned to the simulated testbed: RTTs are a
// few microseconds and OSD service tens of microseconds, so elections
// settle within ~1 ms of a leader death — far inside the detection grace
// that stalls primary-copy.
func DefaultConfig() Config {
	return Config{
		ElectionMin:    300 * sim.Microsecond,
		ElectionMax:    600 * sim.Microsecond,
		Heartbeat:      100 * sim.Microsecond,
		Lease:          200 * sim.Microsecond,
		SnapshotEvery:  64,
		MaxBatch:       32,
		ActivityWindow: 4 * 600 * sim.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ElectionMin <= 0 {
		c.ElectionMin = d.ElectionMin
	}
	if c.ElectionMax <= c.ElectionMin {
		c.ElectionMax = c.ElectionMin * 2
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = d.Heartbeat
	}
	if c.Lease <= 0 || c.Lease >= c.ElectionMin {
		c.Lease = c.ElectionMin * 2 / 3
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.ActivityWindow < 2*c.ElectionMax {
		c.ActivityWindow = 4 * c.ElectionMax
	}
	return c
}

// Stats aggregates observable Raft activity across all groups of a System.
type Stats struct {
	Groups       int
	Elections    uint64 // candidate transitions (attempts, not wins)
	LeaderWins   uint64
	StepDowns    uint64 // leaders deposed by a higher term
	Redirects    uint64 // proposals bounced off non-leaders
	NoLeaderErrs uint64 // routed ops failed after the redirect budget
	Appends      uint64 // entries appended at leaders
	Commits      uint64 // entries committed (majority-replicated)
	LeaseReads   uint64 // reads served locally under a valid lease
	LeaseWaits   uint64 // reads parked for a lease-refresh round
	Snapshots    uint64 // log compactions
	SnapInstalls uint64 // InstallSnapshot catch-ups sent
}

// System owns the per-PG groups of one replicated pool plus their shared
// configuration, trace sink and statistics. Groups are created lazily on
// first access from the PG's acting set; membership is fixed for the run
// (the placement cache keeps acting sets stable under up/down churn).
type System struct {
	Eng     *sim.Engine
	Cluster *rados.Cluster
	Pool    *rados.Pool
	Cfg     Config
	// Sink receives member-side spans (leader-elect roots, raft-append);
	// nil disables. It must belong to the cluster's domain.
	Sink *trace.Sink

	groups   map[uint32]*Group
	pgs      []uint32 // creation order, for deterministic introspection
	watchers map[int][]*member
	stats    Stats
}

// NewSystem builds the multi-Raft backend for one replicated pool.
func NewSystem(cluster *rados.Cluster, pool *rados.Pool, cfg Config) *System {
	return &System{
		Eng:      cluster.Eng,
		Cluster:  cluster,
		Pool:     pool,
		Cfg:      cfg.withDefaults(),
		groups:   make(map[uint32]*Group),
		watchers: make(map[int][]*member),
	}
}

// Stats returns a copy of the aggregate counters.
func (s *System) Stats() Stats {
	st := s.stats
	st.Groups = len(s.pgs)
	return st
}

// PGs returns the PGs with live groups, in creation order.
func (s *System) PGs() []uint32 { return s.pgs }

// Group returns (creating on first use) the Raft group for pg.
func (s *System) Group(pg uint32) (*Group, error) {
	if g, ok := s.groups[pg]; ok {
		return g, nil
	}
	acting, err := s.Cluster.ActingSet(s.Pool, pg)
	if err != nil {
		return nil, err
	}
	g := &Group{sys: s}
	for _, osd := range acting {
		if osd < 0 || osd >= len(s.Cluster.OSDs) {
			continue
		}
		m := &member{
			g:        g,
			idx:      len(g.members),
			osd:      s.Cluster.OSDs[osd],
			node:     s.Cluster.NodeOf(osd),
			votedFor: -1,
			hint:     -1,
			rng:      sim.NewRNG(s.Cfg.Seed ^ (uint64(pg)+1)*0x9E3779B97F4A7C15 ^ (uint64(osd)+1)*0xC2B2AE3D27D4EB4F),
		}
		g.members = append(g.members, m)
	}
	if len(g.members) == 0 {
		return nil, errors.New("raft: acting set has no placed members")
	}
	s.groups[pg] = g
	s.pgs = append(s.pgs, pg)
	g.bootstrap()
	for _, m := range g.members {
		s.watchMember(m)
	}
	return g, nil
}

// watchMember subscribes a member to its OSD's liveness transitions. One
// OSD hosts members of many PGs, so the watch fans out over a slice that
// grows as groups are created (deterministic creation order).
func (s *System) watchMember(m *member) {
	id := m.osd.ID
	if _, ok := s.watchers[id]; !ok {
		o := m.osd
		s.watchers[id] = nil
		o.SetHealthWatch(func(alive bool) {
			for _, w := range s.watchers[id] {
				w.healthChanged(alive)
			}
		})
	}
	s.watchers[id] = append(s.watchers[id], m)
}

// Group is one PG's Raft group: an ordered member per acting-set OSD.
type Group struct {
	sys     *System
	members []*member
	// lastElect is the span ID of the most recent leader-elect span, cause
	// link for redirect- and no-leader-induced stalls.
	lastElect uint64
	// activeUntil is the edge of the current activity window: timers rearm
	// only before it, so the group quiesces once client traffic stops.
	activeUntil sim.Time
	// scratch backs commit-quorum computation without per-call allocation.
	scratch []uint64
}

// quorum returns the majority size.
func (g *Group) quorum() int { return len(g.members)/2 + 1 }

// Term returns the highest term any member has seen (introspection).
func (g *Group) Term() uint64 {
	var t uint64
	for _, m := range g.members {
		if m.term > t {
			t = m.term
		}
	}
	return t
}

// bootstrap seats the first alive member as leader at term 1 — the
// deployment handshake that a real cluster performs at pool creation — so
// runs do not open with a cold-start election storm across every PG. A
// group created mid-fault (first I/O after a crash) skips dead members; if
// nobody is alive the group idles until a revival re-arms its timers.
func (g *Group) bootstrap() {
	lead := -1
	for _, m := range g.members {
		if lead < 0 && m.alive() {
			lead = m.idx
		}
	}
	for _, m := range g.members {
		m.term = 1
		m.hint = lead
	}
	if lead >= 0 {
		m0 := g.members[lead]
		m0.votedFor = lead
		m0.becomeLeader()
	}
	for _, m := range g.members {
		if m.idx != lead {
			m.resetElectionTimer()
		}
	}
}

// pump extends the group's activity window and rearms any timer the
// window's previous expiry let lapse. Every routed client op pumps its
// group, so leader liveness is maintained exactly while someone cares;
// an idle group's timers expire and the event queue drains.
func (g *Group) pump() {
	until := g.sys.Eng.Now().Add(g.sys.Cfg.ActivityWindow)
	if until <= g.activeUntil {
		return
	}
	g.activeUntil = until
	for _, m := range g.members {
		if !m.alive() {
			continue
		}
		if m.role == roleLeader {
			if !m.hbArmed {
				m.armHeartbeat()
			}
		} else if !m.timerArmed {
			m.resetElectionTimer()
		}
	}
}

// member roles.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// waiter is one client write parked on commit.
type waiter struct {
	index  uint64
	start  sim.Time
	tr     trace.Ref
	finish func(ok bool, hint int, elect uint64)
}

// parkedRead is one lease read parked on a lease-refresh round.
type parkedRead struct {
	obj    string
	off, n int
	tr     trace.Ref
	finish func(ok bool, hint int, elect uint64)
}

// member is one Raft participant, colocated with an acting-set OSD. All
// state transitions run on the cluster engine's goroutine.
type member struct {
	g    *Group
	idx  int
	osd  *rados.OSD
	node *netsim.Host
	rng  *sim.RNG

	role     int
	term     uint64
	votedFor int // member idx; -1 = none this term
	log      Log
	commit   uint64
	hint     int // last known leader idx; -1 = unknown

	timer      sim.EventID
	timerArmed bool

	votes int // candidate: granted votes this term

	// leader volatile state
	nextIndex  []uint64
	matchIndex []uint64
	hbTimer    sim.EventID
	hbArmed    bool
	hbSeq      uint64   // current quorum-round sequence
	hbStart    sim.Time // start of the current round (lease basis)
	hbAcks     int      // follower acks for the current round
	leaseUntil sim.Time
	waiters    []waiter
	parked     []parkedRead

	electH trace.H // open leader-elect span while campaigning
}

func (m *member) sys() *System      { return m.g.sys }
func (m *member) eng() *sim.Engine  { return m.g.sys.Eng }
func (m *member) cfg() *Config      { return &m.g.sys.Cfg }
func (m *member) alive() bool       { return m.osd.Alive() }
func (m *member) sink() *trace.Sink { return m.g.sys.Sink }

// logObj names the synthetic per-PG log object that catch-up batches and
// snapshot applies are charged against.
func (m *member) logObj() string { return "rftlog" }

// send delivers a Raft message over the fabric; arrival at a dead member
// is dropped (its daemon is gone), which is what makes silent failures and
// partitions indistinguishable to the sender.
func (m *member) send(to *member, bytes int, fn func()) {
	m.g.sys.Cluster.Fabric.Send(m.node, to.node, bytes, func() {
		if to.alive() {
			fn()
		}
	})
}

// --- timers -------------------------------------------------------------

func (m *member) resetElectionTimer() {
	m.stopElectionTimer()
	if !m.alive() || m.eng().Now() >= m.g.activeUntil {
		return
	}
	cfg := m.cfg()
	d := cfg.ElectionMin + sim.Duration(m.rng.Int63n(int64(cfg.ElectionMax-cfg.ElectionMin)))
	m.timer = m.eng().Schedule(d, m.electionTimeout)
	m.timerArmed = true
}

func (m *member) stopElectionTimer() {
	if m.timerArmed {
		m.eng().Cancel(m.timer)
		m.timerArmed = false
	}
}

func (m *member) armHeartbeat() {
	if m.hbArmed {
		m.eng().Cancel(m.hbTimer)
		m.hbArmed = false
	}
	if m.eng().Now() >= m.g.activeUntil {
		return
	}
	m.hbTimer = m.eng().Schedule(m.cfg().Heartbeat, m.heartbeatTick)
	m.hbArmed = true
}

func (m *member) stopHeartbeat() {
	if m.hbArmed {
		m.eng().Cancel(m.hbTimer)
		m.hbArmed = false
	}
}

func (m *member) heartbeatTick() {
	m.hbArmed = false
	if !m.alive() || m.role != roleLeader || m.eng().Now() >= m.g.activeUntil {
		return // lapsed: the next pump rearms
	}
	m.broadcastAppend(trace.Ref{})
	m.armHeartbeat()
}

// healthChanged reacts to the member's OSD dying or reviving. Death is
// silent to clients: pending proposals and parked reads are dropped
// without replies (the callers' deadlines discover the loss). Revival
// rejoins as a follower; catch-up and term discovery happen via normal
// AppendEntries traffic.
func (m *member) healthChanged(alive bool) {
	if !alive {
		m.stopElectionTimer()
		m.stopHeartbeat()
		m.role = roleFollower
		m.votes = 0
		m.waiters = m.waiters[:0]
		m.parked = m.parked[:0]
		m.leaseUntil = 0
		if m.electH.On() {
			m.electH.End()
			m.electH = trace.H{}
		}
		return
	}
	m.role = roleFollower
	m.hint = -1
	m.resetElectionTimer()
}

// --- elections ------------------------------------------------------------

func (m *member) electionTimeout() {
	m.timerArmed = false
	if !m.alive() || m.role == roleLeader {
		return
	}
	if m.eng().Now() >= m.g.activeUntil {
		return // window closed with no client waiting: don't campaign idly
	}
	m.startElection()
}

func (m *member) startElection() {
	m.role = roleCandidate
	m.term++
	m.votedFor = m.idx
	m.votes = 1
	m.hint = -1
	m.sys().stats.Elections++
	if !m.electH.On() {
		m.electH = m.sink().Root("leader-elect")
		m.electH.Link(trace.KindElection, m.g.lastElect)
	}
	term, lastIdx, lastTerm := m.term, m.log.LastIndex(), m.log.LastTerm()
	for _, o := range m.g.members {
		if o == m {
			continue
		}
		o, from := o, m
		m.send(o, rados.HdrBytes, func() {
			o.onRequestVote(from, term, lastIdx, lastTerm)
		})
	}
	m.resetElectionTimer() // campaign retry with a fresh randomized timeout
	if m.votes >= m.g.quorum() {
		m.becomeLeader()
	}
}

func (m *member) logUpToDate(lastIdx, lastTerm uint64) bool {
	if lastTerm != m.log.LastTerm() {
		return lastTerm > m.log.LastTerm()
	}
	return lastIdx >= m.log.LastIndex()
}

func (m *member) onRequestVote(from *member, term, lastIdx, lastTerm uint64) {
	if term > m.term {
		m.stepDown(term)
	}
	grant := false
	if term == m.term && (m.votedFor == -1 || m.votedFor == from.idx) && m.logUpToDate(lastIdx, lastTerm) {
		grant = true
		m.votedFor = from.idx
		m.resetElectionTimer()
	}
	reqTerm, myTerm, voter := term, m.term, m
	m.send(from, rados.HdrBytes, func() {
		from.onVoteResp(voter, reqTerm, myTerm, grant)
	})
}

func (m *member) onVoteResp(from *member, reqTerm, term uint64, grant bool) {
	if term > m.term {
		m.stepDown(term)
		return
	}
	if m.role != roleCandidate || reqTerm != m.term || !grant {
		return
	}
	m.votes++
	if m.votes >= m.g.quorum() {
		m.becomeLeader()
	}
}

func (m *member) becomeLeader() {
	m.role = roleLeader
	m.hint = m.idx
	m.sys().stats.LeaderWins++
	n := len(m.g.members)
	if m.nextIndex == nil {
		m.nextIndex = make([]uint64, n)
		m.matchIndex = make([]uint64, n)
	}
	last := m.log.LastIndex()
	for i := range m.nextIndex {
		m.nextIndex[i] = last + 1
		m.matchIndex[i] = 0
	}
	// The leader's own log is (sim-)durable up to its tail: entries were
	// fsynced as they were appended on earlier terms.
	m.matchIndex[m.idx] = last
	m.leaseUntil = 0
	m.votes = 0
	m.stopElectionTimer()
	if m.electH.On() {
		m.electH.End()
		m.g.lastElect = m.electH.ID()
		m.electH = trace.H{}
	}
	m.broadcastAppend(trace.Ref{}) // assert leadership + first lease round
	m.armHeartbeat()
}

// stepDown moves to follower at term (>= current). Deposed leaders fail
// their in-flight proposals and parked reads so clients re-route.
func (m *member) stepDown(term uint64) {
	if m.role == roleLeader {
		m.sys().stats.StepDowns++
		m.stopHeartbeat()
		m.failWaiters()
	}
	if m.electH.On() {
		m.electH.End()
		m.electH = trace.H{}
	}
	if term > m.term {
		m.term = term
		m.votedFor = -1
	}
	m.role = roleFollower
	m.votes = 0
	m.leaseUntil = 0
	m.resetElectionTimer()
}

// failWaiters bounces committed-wait writes and parked reads back to the
// router with the current leader hint (usually -1 mid-election).
func (m *member) failWaiters() {
	ws, ps := m.waiters, m.parked
	m.waiters = nil
	m.parked = nil
	for _, w := range ws {
		w.finish(false, m.hint, m.g.lastElect)
	}
	for _, p := range ps {
		p.finish(false, m.hint, m.g.lastElect)
	}
}

// --- replication ----------------------------------------------------------

// broadcastAppend opens a new quorum round and ships per-follower batches.
// tr carries the trace context of the proposal that triggered the round
// (zero for heartbeats), so the follower-side journal writes nest in the
// client op's trace.
func (m *member) broadcastAppend(tr trace.Ref) {
	m.hbSeq++
	m.hbStart = m.eng().Now()
	m.hbAcks = 0
	for _, o := range m.g.members {
		if o != m {
			m.sendAppend(o, tr)
		}
	}
	if m.g.quorum() == 1 {
		m.leaseUntil = m.hbStart.Add(m.cfg().Lease)
		m.advanceCommit()
		m.serveParked()
	}
}

// sendAppend ships follower o its next batch (possibly empty = heartbeat),
// or an InstallSnapshot when o has fallen behind the snapshot edge.
func (m *member) sendAppend(o *member, tr trace.Ref) {
	next := m.nextIndex[o.idx]
	if next <= m.log.SnapIndex() {
		m.sendSnapshot(o)
		return
	}
	batch, _ := m.log.Slice(next, m.cfg().MaxBatch)
	var es []Entry
	payload := 0
	if len(batch) > 0 {
		es = append(es, batch...) // copy: the log slice may compact under us
		for _, e := range es {
			payload += int(e.Size)
		}
		m.nextIndex[o.idx] = es[len(es)-1].Index + 1 // optimistic pipelining
	}
	prevIdx := next - 1
	prevTerm, _ := m.log.TermAt(prevIdx)
	bytes := rados.HdrBytes + len(es)*entryBytes + payload
	leader, term, commit, seq := m, m.term, m.commit, m.hbSeq
	m.send(o, bytes, func() {
		o.onAppend(leader, term, prevIdx, prevTerm, es, commit, seq, tr)
	})
}

func (m *member) onAppend(from *member, term, prevIdx, prevTerm uint64, es []Entry, leaderCommit, seq uint64, tr trace.Ref) {
	if term < m.term {
		m.replyAppend(from, false, m.log.LastIndex(), seq)
		return
	}
	if term > m.term || m.role != roleFollower {
		m.stepDown(term)
	}
	m.hint = from.idx
	m.resetElectionTimer()

	if t, ok := m.log.TermAt(prevIdx); !ok || t != prevTerm {
		// Conflict hint: the mismatch is at prevIdx itself, so the leader
		// must back off *below* it — replying with our bare tail would pin
		// its nextIndex at the conflict forever when our tail is shorter
		// than the conflict point (reject ping-pong livelock). Floor the
		// hint at the snapshot edge: everything compacted is committed and
		// committed prefixes never conflict.
		hint := m.log.LastIndex()
		if prevIdx > 0 && prevIdx-1 < hint {
			hint = prevIdx - 1
		}
		if si := m.log.SnapIndex(); hint < si {
			hint = si
		}
		m.replyAppend(from, false, hint, seq)
		return
	}
	payload := 0
	for _, e := range es {
		if e.Index <= m.log.SnapIndex() {
			continue // already compacted into the snapshot (stale resend)
		}
		if t, ok := m.log.TermAt(e.Index); ok {
			if t == e.Term {
				continue // duplicate delivery of an entry we already hold
			}
			m.log.TruncateFrom(e.Index)
		}
		if e.Index > m.log.LastIndex() {
			continueFrom := m.log.LastIndex() + 1
			if e.Index != continueFrom {
				// Gap (stale batch after a truncation race): reject, the
				// leader will back off nextIndex and resend.
				m.replyAppend(from, false, m.log.LastIndex(), seq)
				return
			}
		}
		m.log.Append(e)
		payload += int(e.Size)
	}
	if leaderCommit > m.commit {
		if last := m.log.LastIndex(); leaderCommit < last {
			m.commit = leaderCommit
		} else {
			m.commit = last
		}
		m.maybeCompact()
	}
	matchIdx := m.log.LastIndex()
	if payload == 0 {
		m.replyAppend(from, true, matchIdx, seq)
		return
	}
	// Journal fsync: the follower acks only once the batch is durable on
	// its drive. A crash mid-write drops the ack (callback errors or never
	// fires), and the leader's next round retries.
	me := m
	m.osd.SubmitOpts(rados.ReqOpts{Trace: tr}, rados.OpWrite, m.logObj(), 0, rados.Zeros(payload), 0, func(r rados.Result) {
		if r.Err != nil {
			return
		}
		me.replyAppend(from, true, matchIdx, seq)
	})
}

func (m *member) replyAppend(to *member, success bool, matchIdx, seq uint64) {
	term, from := m.term, m
	m.send(to, rados.HdrBytes, func() {
		to.onAppendResp(from, term, success, matchIdx, seq)
	})
}

func (m *member) onAppendResp(from *member, term uint64, success bool, matchIdx, seq uint64) {
	if term > m.term {
		m.stepDown(term)
		return
	}
	if m.role != roleLeader || term < m.term {
		return
	}
	if success {
		if matchIdx > m.matchIndex[from.idx] {
			m.matchIndex[from.idx] = matchIdx
		}
		if matchIdx+1 > m.nextIndex[from.idx] {
			m.nextIndex[from.idx] = matchIdx + 1
		}
		if seq == m.hbSeq {
			m.hbAcks++
			if m.hbAcks+1 >= m.g.quorum() {
				m.leaseUntil = m.hbStart.Add(m.cfg().Lease)
				m.serveParked()
			}
		}
		m.advanceCommit()
		if m.nextIndex[from.idx] <= m.log.LastIndex() {
			m.sendAppend(from, trace.Ref{}) // keep the laggard catching up
		}
		return
	}
	// Log mismatch: back off to the follower's tail (at least one step so
	// repeated conflicts always make progress) and resend.
	ni := matchIdx + 1
	if prev := m.nextIndex[from.idx]; ni >= prev && prev > 1 {
		ni = prev - 1
	}
	if ni < 1 {
		ni = 1
	}
	m.nextIndex[from.idx] = ni
	m.sendAppend(from, trace.Ref{})
}

// advanceCommit commits the largest index replicated on a quorum whose
// entry is from the current term (Raft's commit rule).
func (m *member) advanceCommit() {
	if m.role != roleLeader {
		return
	}
	sc := m.g.scratch[:0]
	sc = append(sc, m.matchIndex...)
	// insertion sort descending (n is the replica count, 2-5)
	for i := 1; i < len(sc); i++ {
		for j := i; j > 0 && sc[j] > sc[j-1]; j-- {
			sc[j], sc[j-1] = sc[j-1], sc[j]
		}
	}
	m.g.scratch = sc
	cand := sc[m.g.quorum()-1]
	if cand <= m.commit {
		return
	}
	if t, ok := m.log.TermAt(cand); !ok || t != m.term {
		return
	}
	m.sys().stats.Commits += cand - m.commit
	m.commit = cand
	m.completeWaiters()
	m.maybeCompact()
}

// completeWaiters acks every parked proposal at or below the commit index,
// emitting its raft-append span (propose arrival → commit).
func (m *member) completeWaiters() {
	now := m.eng().Now()
	i := 0
	for ; i < len(m.waiters); i++ {
		w := m.waiters[i]
		if w.index > m.commit {
			break
		}
		if s := m.sink(); s != nil && w.tr.Sampled() {
			s.Emit(w.tr, "raft-append", w.start, now.Sub(w.start), 0, "", 0)
		}
		w.finish(true, m.idx, 0)
	}
	if i > 0 {
		m.waiters = append(m.waiters[:0], m.waiters[i:]...)
	}
}

// maybeCompact snapshots the log once enough committed entries accumulate.
func (m *member) maybeCompact() {
	every := m.cfg().SnapshotEvery
	if every <= 0 || m.commit < m.log.SnapIndex()+uint64(every) {
		return
	}
	m.log.CompactTo(m.commit)
	m.sys().stats.Snapshots++
}

// sendSnapshot catches up a follower that fell behind the snapshot edge.
func (m *member) sendSnapshot(o *member) {
	m.sys().stats.SnapInstalls++
	snapIdx, snapTerm := m.log.SnapIndex(), m.log.SnapTerm()
	m.nextIndex[o.idx] = snapIdx + 1
	leader, term, commit := m, m.term, m.commit
	m.send(o, rados.HdrBytes+snapshotBytes, func() {
		o.onInstallSnapshot(leader, term, snapIdx, snapTerm, commit)
	})
}

func (m *member) onInstallSnapshot(from *member, term, snapIdx, snapTerm, leaderCommit uint64) {
	if term < m.term {
		m.replyAppend(from, false, m.log.LastIndex(), 0)
		return
	}
	if term > m.term || m.role != roleFollower {
		m.stepDown(term)
	}
	m.hint = from.idx
	m.resetElectionTimer()
	if snapIdx > m.log.LastIndex() {
		m.log.ResetTo(snapIdx, snapTerm)
	} else if snapIdx > m.log.SnapIndex() {
		m.log.CompactTo(snapIdx)
	}
	if leaderCommit > m.commit {
		if last := m.log.LastIndex(); leaderCommit < last {
			m.commit = leaderCommit
		} else {
			m.commit = last
		}
	}
	matchIdx := m.log.LastIndex()
	me := m
	// Applying a snapshot rewrites the PG's object map: charge one write.
	m.osd.SubmitOpts(rados.ReqOpts{}, rados.OpWrite, m.logObj(), 0, rados.Zeros(snapshotBytes), 0, func(r rados.Result) {
		if r.Err != nil {
			return
		}
		me.replyAppend(from, true, matchIdx, 0)
	})
}

// serveParked issues every read parked on the lease that just renewed.
func (m *member) serveParked() {
	if len(m.parked) == 0 {
		return
	}
	ps := m.parked
	m.parked = nil
	for _, p := range ps {
		m.serveRead(p.obj, p.off, p.n, p.tr, p.finish)
	}
}

// --- client entry points ----------------------------------------------------

// propose is a routed client write arriving at member m: leaders append,
// replicate and ack on majority commit; everyone else redirects.
func (g *Group) propose(m *member, obj string, off, size int, tr trace.Ref, finish func(ok bool, hint int, elect uint64)) {
	sys := g.sys
	if m.role != roleLeader {
		sys.stats.Redirects++
		finish(false, m.hint, g.lastElect)
		return
	}
	idx := m.log.LastIndex() + 1
	m.log.Append(Entry{Index: idx, Term: m.term, Size: uint32(size)})
	sys.stats.Appends++
	m.waiters = append(m.waiters, waiter{index: idx, start: m.eng().Now(), tr: tr, finish: finish})
	term := m.term
	// Leader journal fsync: the real object write on the leader's drive.
	m.osd.SubmitOpts(rados.ReqOpts{Trace: tr}, rados.OpWrite, obj, off, rados.Zeros(size), 0, func(r rados.Result) {
		if r.Err != nil || m.role != roleLeader || m.term != term {
			return
		}
		if idx > m.matchIndex[m.idx] {
			m.matchIndex[m.idx] = idx
		}
		m.advanceCommit()
	})
	m.broadcastAppend(tr)
}

// leaseRead is a routed client read arriving at member m: leaders with a
// valid lease serve locally; leaders with an expired lease park the read
// behind a refresh round; everyone else redirects.
func (g *Group) leaseRead(m *member, obj string, off, n int, tr trace.Ref, finish func(ok bool, hint int, elect uint64)) {
	sys := g.sys
	if m.role != roleLeader {
		sys.stats.Redirects++
		finish(false, m.hint, g.lastElect)
		return
	}
	if m.eng().Now() < m.leaseUntil {
		sys.stats.LeaseReads++
		m.serveRead(obj, off, n, tr, finish)
		return
	}
	sys.stats.LeaseWaits++
	m.parked = append(m.parked, parkedRead{obj: obj, off: off, n: n, tr: tr, finish: finish})
	m.broadcastAppend(trace.Ref{}) // refresh the lease now, not at next tick
}

// serveRead charges the local OSD read and acks the router.
func (m *member) serveRead(obj string, off, n int, tr trace.Ref, finish func(ok bool, hint int, elect uint64)) {
	hint := m.idx
	m.osd.SubmitOpts(rados.ReqOpts{Trace: tr}, rados.OpRead, obj, off, nil, n, func(r rados.Result) {
		finish(r.Err == nil, hint, 0)
	})
}
