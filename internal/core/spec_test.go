package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/iouring"
	"repro/internal/sim"
)

func newSpecTestbed(t *testing.T) *Testbed {
	t.Helper()
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestNamedSpecsBuild asserts the whole spec table is buildable: every one
// of the paper's five stacks, bare and with +repl-raft, assembles through
// BuildStack holding exactly the parts its spec names and answers a small
// I/O burst.
func TestNamedSpecsBuild(t *testing.T) {
	specs := NamedSpecs()
	if len(specs) != 5 {
		t.Fatalf("spec table has %d rows, want 5", len(specs))
	}
	wantNames := []string{"deliba-1-hw", "deliba-2-sw", "deliba-2-hw", "deliba-k-sw", "deliba-k-hw"}
	for i, named := range specs {
		if named.Name != wantNames[i] {
			t.Errorf("row %d named %q, want %q", i, named.Name, wantNames[i])
		}
		raft, err := ParseStackSpec(named.Name + "+repl-raft")
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []StackSpec{named, raft} {
			spec := spec
			t.Run(spec.Name, func(t *testing.T) {
				if err := spec.Validate(); err != nil {
					t.Fatalf("spec invalid: %v", err)
				}
				tb := newSpecTestbed(t)
				stack, err := tb.BuildStack(spec)
				if err != nil {
					t.Fatal(err)
				}
				if stack.Name() != spec.Name {
					t.Errorf("stack name %q, want %q", stack.Name(), spec.Name)
				}
				// The parts: each present exactly where the spec names its
				// layer, so a builder that forgets one fails here rather
				// than silently dropping the bench's blk-mq and UIFD rows.
				ps := stack.(*pipelineStack)
				qdma := spec.Transport == TransportQDMA
				if (ps.MQ() != nil) != qdma || (ps.Driver() != nil) != qdma {
					t.Errorf("MQ present %v, Driver present %v; want both %v on transport %v",
						ps.MQ() != nil, ps.Driver() != nil, qdma, spec.Transport)
				}
				card := spec.Placement == PlacementRTL || spec.Placement == PlacementHLS
				if (ps.Shell() != nil) != card {
					t.Errorf("Shell present %v, want %v on placement %v", ps.Shell() != nil, card, spec.Placement)
				}
				if uring := spec.HostAPI == HostIOUring; (ps.Rings() != nil) != uring {
					t.Errorf("Rings present %v, want %v on host API %v", ps.Rings() != nil, uring, spec.HostAPI)
				}
				if (ps.fan == nil) == (ps.client == nil) {
					t.Errorf("fan-out engine present %v, software client present %v; want exactly one",
						ps.fan != nil, ps.client != nil)
				}
				routed := (ps.fan != nil && ps.fan.Raft != nil) || (ps.client != nil && ps.client.Repl != nil)
				if want := spec.Replication == ReplRaft; routed != want {
					t.Errorf("Raft router wired %v, want %v", routed, want)
				}
				var ioErr error
				for i := 0; i < 4 && ioErr == nil; i++ {
					ioErr = do(tb.Eng, stack, Write, Seq, int64(i)*4096, 4096, i)
				}
				tb.Eng.Run()
				stack.Close()
				if ioErr != nil {
					t.Fatalf("I/O through %s: %v", spec.Name, ioErr)
				}
			})
		}
	}
}

// TestBuildStackRejectsInvalidCombos exercises every validation rule and
// checks the error names the conflicting layers.
func TestBuildStackRejectsInvalidCombos(t *testing.T) {
	dk := func() StackSpec { s, _ := ParseStackSpec("deliba-k-hw"); return s }
	cases := []struct {
		name string
		spec StackSpec
		want string // substring the error must contain
	}{
		{"iouring-needs-block-layer", func() StackSpec {
			s := dk()
			s.Block = BlockNone
			return s
		}(), "requires a kernel block layer"},
		{"nbd-cannot-drive-dmq", func() StackSpec {
			s, _ := ParseStackSpec("deliba-2-hw")
			s.Block = BlockDMQBypass
			return s
		}(), "cannot drive block layer"},
		{"qdma-needs-iouring", func() StackSpec {
			s, _ := ParseStackSpec("deliba-2-hw")
			s.Transport = TransportQDMA
			s.Block = BlockNone
			return s
		}(), "requires host API iouring"},
		{"legacy-dma-needs-nbd", func() StackSpec {
			s := dk()
			s.Transport = TransportLegacyDMA
			return s
		}(), "requires host API nbd"},
		{"mq-deadline-needs-qdma", func() StackSpec {
			s, _ := ParseStackSpec("deliba-k-sw")
			s.Block = BlockMQDeadline
			return s
		}(), "only exists on the qdma path"},
		{"card-placement-needs-card", func() StackSpec {
			s, _ := ParseStackSpec("deliba-k-sw")
			s.Placement = PlacementRTL
			return s
		}(), "runs on the card and requires transport"},
		{"sw-placement-forbids-card", func() StackSpec {
			s := dk()
			s.Placement = PlacementSoftware
			return s
		}(), "needs no card"},
		{"card-fanout-needs-card-placement", func() StackSpec {
			s, _ := ParseStackSpec("deliba-k-sw")
			s.Fanout = FanoutCardRTL
			return s
		}(), "the card never learns the placement"},
		{"host-fanout-with-rtl-needs-legacy", func() StackSpec {
			s := dk()
			s.Fanout = FanoutHostTCP
			return s
		}(), "needs the legacy-dma offload round trip"},
		{"ring-options-need-iouring", func() StackSpec {
			s, _ := ParseStackSpec("deliba-2-hw")
			s.RingInterrupt = true
			return s
		}(), "ring options"},
		{"instances-out-of-range", func() StackSpec {
			s := dk()
			s.Instances = 65
			return s
		}(), "out of range"},
		{"negative-entries", func() StackSpec {
			s := dk()
			s.RingEntries = -1
			return s
		}(), "negative ring entries"},
	}
	tb := newSpecTestbed(t)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tb.BuildStack(tc.spec); err == nil {
				t.Fatalf("BuildStack accepted invalid spec %+v", tc.spec)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// EC on the D1 shape lacks an RS path on either side of the DMA link.
	d1, _ := ParseStackSpec("deliba-1-hw")
	d1.EC = true
	if _, err := tb.BuildStack(d1); !errors.Is(err, errNoECInD1) {
		t.Errorf("EC on D1 shape: err = %v, want errNoECInD1", err)
	}
}

// TestBuildStackHybrid builds a composition that is none of the five named
// generations — DeLiBA-K's datapath with the HLS placement kernel — to
// prove layers actually compose beyond the table.
func TestBuildStackHybrid(t *testing.T) {
	spec, err := ParseStackSpec("iouring,dmq-bypass,qdma,hls-crush,card-rtl")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "iouring+dmq-bypass+qdma+hls-crush+card-rtl" {
		t.Errorf("canonical name = %q", spec.Name)
	}
	tb := newSpecTestbed(t)
	stack, err := tb.BuildStack(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ioErr error
	ioErr = do(tb.Eng, stack, Write, Seq, 0, 65536, 0)
	tb.Eng.Run()
	stack.Close()
	if ioErr != nil {
		t.Fatal(ioErr)
	}
	if ops := stack.(*pipelineStack).Shell().Straw2.Ops(); ops == 0 {
		t.Error("hybrid stack never ran the placement kernel")
	}
}

// TestParseStackSpec covers the named shortcuts, token lists, option
// parsing, and rejection of junk.
func TestParseStackSpec(t *testing.T) {
	// The paper's Fig. 3, pinned layer by layer: host API, block layer,
	// transport, placement, fan-out.
	rows := []StackSpec{
		{Name: "deliba-1-hw", HostAPI: HostNBD, Block: BlockNone,
			Transport: TransportLegacyDMA, Placement: PlacementHLS, Fanout: FanoutHostTCP},
		{Name: "deliba-2-sw", HostAPI: HostNBD, Block: BlockNone,
			Transport: TransportHostOnly, Placement: PlacementSoftware, Fanout: FanoutHostTCP},
		{Name: "deliba-2-hw", HostAPI: HostNBD, Block: BlockNone,
			Transport: TransportLegacyDMA, Placement: PlacementHLS, Fanout: FanoutCardHLS},
		{Name: "deliba-k-sw", HostAPI: HostIOUring, Block: BlockDMQBypass,
			Transport: TransportHostOnly, Placement: PlacementSoftware, Fanout: FanoutHostTCP},
		{Name: "deliba-k-hw", HostAPI: HostIOUring, Block: BlockDMQBypass,
			Transport: TransportQDMA, Placement: PlacementRTL, Fanout: FanoutCardRTL},
	}
	if got := NamedSpecs(); !slices.Equal(got, rows) {
		t.Fatalf("NamedSpecs() = %+v, want %+v", got, rows)
	}
	for _, want := range rows {
		spec, err := ParseStackSpec(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if spec != want {
			t.Errorf("ParseStackSpec(%q) = %+v, want %+v", want.Name, spec, want)
		}
		if want.Name == "deliba-1-hw" {
			continue // DeLiBA-1 had no erasure-coding accelerators
		}
		ec, err := ParseStackSpec(want.Name + "+ec")
		if err != nil {
			t.Fatalf("%s+ec: %v", want.Name, err)
		}
		want.Name += "+ec"
		want.EC = true
		if ec != want {
			t.Errorf("ParseStackSpec(%q) = %+v, want only EC set: %+v", want.Name, ec, want)
		}
	}
	if _, err := ParseStackSpec("deliba-1-hw+ec"); err == nil {
		t.Error("ParseStackSpec accepted deliba-1-hw+ec")
	}

	spec, err := ParseStackSpec("iouring,dmq-bypass,qdma,rtl-crush,card-rtl,ec,interrupt,instances=1,entries=64")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.EC || !spec.RingInterrupt || spec.Instances != 1 || spec.RingEntries != 64 {
		t.Errorf("options not applied: %+v", spec)
	}
	if spec.ringInstances() != 1 || spec.ringDepth() != 64 {
		t.Errorf("resolved instances=%d depth=%d", spec.ringInstances(), spec.ringDepth())
	}

	for _, bad := range []string{
		"warpspeed",            // unknown token
		"instances=lots",       // unparsable option
		"nbd,dmq-bypass",       // fails validation
		"iouring,noblock,qdma", // fails validation
		"sw-crush",             // sw placement on default qdma transport
	} {
		if _, err := ParseStackSpec(bad); err == nil {
			t.Errorf("ParseStackSpec(%q) accepted", bad)
		}
	}
}

// TestSQFullBackoffDeterministic drives a ring set sized far below the
// offered load so the SQ-full retry path fires, and checks the seeded
// jitter stream makes the replay identical run to run.
func TestSQFullBackoffDeterministic(t *testing.T) {
	run := func() sim.Time {
		cfg := DefaultTestbedConfig()
		cfg.Jitter = false
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := ParseStackSpec("deliba-k-hw")
		spec.Instances = 1
		spec.RingEntries = 2
		stack, err := tb.BuildStack(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for i := 0; i < 32; i++ {
			off := int64(i) * 4096
			tb.Eng.Schedule(0, func() {
				stack.Submit(Write, Seq, off, 4096, 0, func(err error) {
					if err != nil {
						t.Errorf("write at %d: %v", off, err)
					}
					done++
				})
			})
		}
		tb.Eng.Run()
		stack.Close()
		if done != 32 {
			t.Fatalf("completed %d/32 writes", done)
		}
		return tb.Eng.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d finished at %v, first at %v — backoff jitter not deterministic", i+2, again, first)
		}
	}
}

// TestCQOverflowCompletesEveryOp floods one two-entry ring behind the lsvd
// cache, whose hits complete fast enough to overrun the four-slot CQ: every
// op must still complete, with the overflowed CQEs reaped from the ring's
// backlog rather than dropped, and the ring must drain.
func TestCQOverflowCompletesEveryOp(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	tb, stack := buildSpec(t, cfg, "deliba-k-hw+cache-lsvd+instances=1+entries=2")
	const ops = 64
	done := 0
	tb.Eng.Schedule(0, func() {
		for i := 0; i < ops; i++ {
			op := Write
			if i%2 == 1 {
				op = Read
			}
			stack.Submit(op, Rand, int64(i%8)*4096, 4096, 0, func(err error) {
				if err != nil {
					t.Error(err)
				}
				done++
			})
		}
	})
	tb.Eng.Run()
	stack.Close()
	if done != ops {
		t.Errorf("completed %d/%d ops", done, ops)
	}
	ring := stack.(interface{ Rings() []*iouring.Ring }).Rings()[0]
	_, submitted, completed, overflow, _ := ring.Stats()
	if overflow == 0 {
		t.Error("no CQ overflow: the test no longer exercises the backlog")
	}
	if _, ok := ring.PeekCQE(); ok || submitted != ops || completed != ops {
		t.Errorf("ring submitted %d and reaped %d (CQ empty: %t), want %d, %d and empty", submitted, completed, !ok, ops, ops)
	}
}

// FuzzParseStackSpec: any string either parses to a spec that validates
// and builds on a default testbed, or is rejected with an error; it never
// panics. The seeds are every named stack, the hybrids CI drives through
// deliba-fio, the benchmark's cache stack, the rejected deliba-1-hw+ec,
// the empty string, and duplicated, misplaced, unknown and out-of-range
// tokens.
func FuzzParseStackSpec(f *testing.F) {
	for _, s := range NamedSpecs() {
		f.Add(s.Name)
	}
	for _, s := range []string{
		"deliba-k-hw+ec", "deliba-k-hw+repl-raft", "deliba-k-sw+cache-lsvd",
		"deliba-k-hw+qos-dmclock", "iouring,dmq-bypass,qdma,hls-crush,card-rtl",
		"deliba-k-hw+cache-lsvd+cachelog=64+cacheread=16",
		"deliba-1-hw+ec", "",
		"deliba-k-hw+ec+ec", "iouring,iouring,qdma,qdma", "deliba-k-hw+deliba-2-sw",
		"ec+deliba-k-hw", "deliba-k-hw+warp-drive", "+,+ ,",
		"deliba-k-hw+instances=65", "deliba-k-hw+entries=40000", "deliba-k-hw+entries=x",
		"deliba-k-hw+cache-lsvd+cachelog=1", "deliba-k-hw+cache-lsvd+cacheread=-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseStackSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseStackSpec(%q) accepted a spec Validate rejects: %v", s, err)
		}
		tb, err := NewTestbed(DefaultTestbedConfig())
		if err != nil {
			t.Fatal(err)
		}
		stack, err := tb.BuildStack(spec)
		if err != nil {
			t.Fatalf("ParseStackSpec(%q) accepted a spec BuildStack rejects: %v", s, err)
		}
		stack.Close()
		tb.Eng.Run()
	})
}
