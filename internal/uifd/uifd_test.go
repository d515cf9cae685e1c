package uifd

import (
	"errors"
	"testing"

	"repro/internal/blockmq"
	"repro/internal/qdma"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeBackend completes card processing after a fixed delay.
type fakeBackend struct {
	eng   *sim.Engine
	delay sim.Duration
	seen  []blockmq.Request
	err   error
}

func (b *fakeBackend) Process(req *blockmq.Request, done func(err error)) {
	b.seen = append(b.seen, *req)
	b.eng.Schedule(b.delay, func() { done(b.err) })
}

// submit is an untenanted, untraced Submit of a fresh record.
func submit(mq *blockmq.MQ, op blockmq.OpType, off int64, n, cpu int, done func(error)) {
	mq.Submit(&blockmq.IO{Op: op, Off: off, Len: n}, cpu, trace.Ref{}, done)
}

func newStackT(t *testing.T, hwQueues int) (*sim.Engine, *blockmq.MQ, *Driver, *fakeBackend) {
	t.Helper()
	eng := sim.NewEngine()
	qe := qdma.New(eng, qdma.DefaultConfig())
	be := &fakeBackend{eng: eng, delay: 20 * sim.Microsecond}
	drv, err := NewDriver(eng, qe, be, Config{HWQueues: hwQueues, Queue: qdma.ReplicationQueue})
	if err != nil {
		t.Fatal(err)
	}
	mq, err := blockmq.New(eng, blockmq.Config{
		CPUs: hwQueues, HWQueues: hwQueues, TagsPerHW: 16, Bypass: true,
	}, drv)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mq, drv, be
}

func TestWritePath(t *testing.T) {
	eng, mq, drv, be := newStackT(t, 2)
	var done sim.Time
	eng.Schedule(0, func() {
		submit(mq, blockmq.OpWrite, 4096, 4096, 0, func(err error) {
			if err != nil {
				t.Error(err)
			}
			done = eng.Now()
		})
	})
	eng.Run()
	if done == 0 {
		t.Fatal("write never completed")
	}
	if len(be.seen) != 1 || be.seen[0].Op != blockmq.OpWrite || be.seen[0].Len != 4096 {
		t.Fatalf("backend saw %+v", be.seen)
	}
	if r, w := drv.Stats(); r != 0 || w != 1 {
		t.Fatalf("stats r=%d w=%d", r, w)
	}
	// End-to-end must include the backend delay plus two DMA crossings.
	if sim.Duration(done) < 20*sim.Microsecond {
		t.Fatalf("completed too fast: %v", done)
	}
}

func TestReadPathMovesPayloadC2H(t *testing.T) {
	// A read's H2C is command-only, so a large read must spend its DMA
	// time on the C2H side; compare against a same-size write.
	measure := func(op blockmq.OpType) sim.Duration {
		eng, mq, _, _ := newStackT(t, 1)
		var done sim.Time
		eng.Schedule(0, func() {
			submit(mq, op, 0, 1<<20, 0, func(error) { done = eng.Now() })
		})
		eng.Run()
		return sim.Duration(done)
	}
	r := measure(blockmq.OpRead)
	w := measure(blockmq.OpWrite)
	diff := r - w
	if diff < 0 {
		diff = -diff
	}
	// Both move 1 MiB exactly once across PCIe: times should be close.
	if diff > r/4 {
		t.Fatalf("read %v vs write %v: asymmetric payload movement", r, w)
	}
}

func TestBackendErrorPropagates(t *testing.T) {
	eng, mq, _, be := newStackT(t, 1)
	be.err = errors.New("osd down")
	var got error
	eng.Schedule(0, func() {
		submit(mq, blockmq.OpWrite, 0, 512, 0, func(err error) { got = err })
	})
	eng.Run()
	if got == nil || got.Error() != "osd down" {
		t.Fatalf("err = %v", got)
	}
}

func TestPerHctxQueueSets(t *testing.T) {
	eng, mq, drv, _ := newStackT(t, 4)
	if len(drv.QueueSets()) != 4 {
		t.Fatalf("queue sets = %d", len(drv.QueueSets()))
	}
	eng.Schedule(0, func() {
		for cpu := 0; cpu < 4; cpu++ {
			submit(mq, blockmq.OpWrite, int64(cpu)*4096, 4096, cpu, nil)
		}
	})
	eng.Run()
	// Each hctx's queue set must have seen exactly one completion pair.
	for i, qs := range drv.QueueSets() {
		if qs.Completions() != 2 { // one H2C + one C2H
			t.Fatalf("queue set %d completions = %d, want 2", i, qs.Completions())
		}
	}
}

func TestDriverValidation(t *testing.T) {
	eng := sim.NewEngine()
	qe := qdma.New(eng, qdma.DefaultConfig())
	if _, err := NewDriver(eng, qe, nil, Config{HWQueues: 1}); err == nil {
		t.Fatal("nil backend accepted")
	}
	be := &fakeBackend{eng: eng}
	if _, err := NewDriver(eng, qe, be, Config{HWQueues: 0}); err == nil {
		t.Fatal("zero queues accepted")
	}
}

// TestTenancyIsolation drives the driver as production stacks build it,
// with a VF pool beside the PF: tenant 0 rides the PF queue sets, tenants
// above 0 hash onto the VF queue sets (spreading over the pool), and the
// card reads each request's tenant from the record it was submitted for.
func TestTenancyIsolation(t *testing.T) {
	const hwQueues, tenants = 2, 16
	eng := sim.NewEngine()
	qe := qdma.New(eng, qdma.DefaultConfig())
	be := &fakeBackend{eng: eng, delay: sim.Microsecond}
	drv, err := NewDriver(eng, qe, be, Config{HWQueues: hwQueues, Queue: qdma.ReplicationQueue, VFs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if drv.Function().Kind != qdma.PF {
		t.Fatalf("driver attached through %v, want the PF", drv.Function().Kind)
	}
	if len(drv.VFs()) != 2 {
		t.Fatalf("VFs = %d, want 2", len(drv.VFs()))
	}
	for _, vf := range drv.VFs() {
		if vf.Kind != qdma.VF {
			t.Fatalf("pool function kind %v, want VF", vf.Kind)
		}
	}
	mq, err := blockmq.New(eng, blockmq.Config{CPUs: hwQueues, HWQueues: hwQueues, TagsPerHW: 64, Bypass: true}, drv)
	if err != nil {
		t.Fatal(err)
	}
	// Each request's offset names its tenant, so the backend's view can be
	// checked request by request.
	eng.Schedule(0, func() {
		for tenant := 0; tenant <= tenants; tenant++ {
			io := &blockmq.IO{Op: blockmq.OpWrite, Off: int64(tenant) * 4096, Len: 512, Tenant: tenant}
			mq.Submit(io, tenant%hwQueues, trace.Ref{}, nil)
		}
	})
	eng.Run()
	if len(be.seen) != tenants+1 {
		t.Fatalf("backend saw %d requests, want %d", len(be.seen), tenants+1)
	}
	for _, r := range be.seen {
		if want := int(r.Off / 4096); r.IO.Tenant != want {
			t.Fatalf("request at %d carries tenant %d, want %d", r.Off, r.IO.Tenant, want)
		}
	}
	// Tenant 0's one write is one H2C and one C2H on the PF set of its
	// hctx; no tenant above 0 touches a PF set.
	for i, qs := range drv.QueueSets() {
		want := 0
		if i == 0 {
			want = 2
		}
		if qs.Completions() != want {
			t.Fatalf("PF queue set %d completions = %d, want %d", i, qs.Completions(), want)
		}
	}
	total := 0
	for v, sets := range drv.vfQueues {
		vfTotal := 0
		for _, qs := range sets {
			vfTotal += qs.Completions()
		}
		if vfTotal == 0 {
			t.Errorf("VF %d carried no tenant traffic", v)
		}
		total += vfTotal
	}
	if total != 2*tenants {
		t.Fatalf("VF queue sets completions = %d, want %d", total, 2*tenants)
	}
}

func TestRingFullReportsBusy(t *testing.T) {
	eng := sim.NewEngine()
	cfg := qdma.DefaultConfig()
	cfg.RingDepth = 1
	qe := qdma.New(eng, cfg)
	be := &fakeBackend{eng: eng, delay: sim.Millisecond}
	drv, err := NewDriver(eng, qe, be, Config{HWQueues: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the driver directly (no MQ) to observe the busy signal.
	req1 := &blockmq.Request{Op: blockmq.OpWrite, Len: 64, IO: &blockmq.IO{}}
	req2 := &blockmq.Request{Op: blockmq.OpWrite, Len: 64, IO: &blockmq.IO{}}
	if !drv.QueueRq(0, req1) {
		t.Fatal("first request rejected")
	}
	if drv.QueueRq(0, req2) {
		t.Fatal("second request accepted despite full ring")
	}
	if drv.QueueRq(99, req2) {
		t.Fatal("bad hctx accepted")
	}
}
