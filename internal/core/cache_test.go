package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestParseCacheSpec covers the '+'-extended named-base form, the cache
// tokens and size options, and the canonical-name suffix.
func TestParseCacheSpec(t *testing.T) {
	spec, err := ParseStackSpec("deliba-k-hw+cache-lsvd")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cache != CacheLSVD {
		t.Errorf("cache = %v, want %v", spec.Cache, CacheLSVD)
	}
	if spec.Name != "deliba-k-hw+cache-lsvd" {
		t.Errorf("name = %q, want the compound form", spec.Name)
	}
	base, _ := ParseStackSpec("deliba-k-hw")
	if spec.Transport != base.Transport || spec.Placement != base.Placement {
		t.Errorf("named base layers not inherited: %+v", spec)
	}

	spec, err = ParseStackSpec("deliba-k-sw+cache-lsvd+cachelog=64+cacheread=16")
	if err != nil {
		t.Fatal(err)
	}
	if spec.CacheLogMB != 64 || spec.CacheReadMB != 16 {
		t.Errorf("cache sizes not applied: %+v", spec)
	}

	// Token lists pick up the cache like any other layer, and the
	// canonical name records it.
	spec, err = ParseStackSpec("iouring,dmq-bypass,qdma,rtl-crush,card-rtl,cache-lsvd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(spec.Name, "+cache-lsvd") {
		t.Errorf("canonical name %q lacks the cache suffix", spec.Name)
	}

	// cache-none is accepted and changes nothing, so existing spellings
	// stay digest-compatible.
	spec, err = ParseStackSpec("deliba-k-hw+cache-none")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cache != CacheNone {
		t.Errorf("cache = %v, want %v", spec.Cache, CacheNone)
	}

	if _, err := ParseStackSpec("cache-lsvd+deliba-k-hw"); err == nil {
		t.Error("stack name accepted in non-leading position")
	}
	if _, err := ParseStackSpec("deliba-k-hw+cachelog=lots"); err == nil {
		t.Error("unparsable cachelog accepted")
	}
}

// TestValidateRejectsCacheCombos pins the rejection messages for cache
// placements the modelled hardware cannot form.
func TestValidateRejectsCacheCombos(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{"cache-on-nbd-d2hw", "deliba-2-hw+cache-lsvd", "runs in user space"},
		{"cache-on-nbd-d2sw", "deliba-2-sw+cache-lsvd", "runs in user space"},
		{"cache-on-nbd-d1hw", "deliba-1-hw+cache-lsvd", "runs in user space"},
		{"cache-sizes-without-cache", "deliba-k-hw+cachelog=64", "require cache-lsvd"},
		{"negative-cache-size", "deliba-k-hw+cache-lsvd+cachelog=-1", "negative cache size"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseStackSpec(tc.spec); err == nil {
				t.Fatalf("ParseStackSpec(%q) accepted", tc.spec)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Direct spec structs reach the block-layer rule (the parser's other
	// pairing rules would fire first on any spellable token list).
	s := StackSpec{HostAPI: HostIOUring, Block: BlockNone, Transport: TransportHostOnly,
		Placement: PlacementSoftware, Fanout: FanoutHostTCP, Cache: CacheLSVD}
	if err := s.Validate(); err == nil {
		t.Error("cache over noblock accepted")
	} else if !strings.Contains(err.Error(), "requires a kernel block layer") {
		t.Errorf("error %q does not name the block-layer conflict", err)
	}
	if err := (StackSpec{CacheVerify: true}).Validate(); err == nil {
		t.Error("verify option without cache accepted")
	}
}

// readLatency builds the stack, writes one block, reads it back and
// returns the read's completion latency.
func readLatency(t *testing.T, tb *Testbed, spec string) sim.Duration {
	t.Helper()
	sp, err := ParseStackSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	var lat sim.Duration
	if err := do(tb.Eng, stack, Write, Rand, 0, 4096, 0); err != nil {
		t.Errorf("write: %v", err)
	}
	start := tb.Eng.Now()
	if err := do(tb.Eng, stack, Read, Rand, 0, 4096, 0); err != nil {
		t.Errorf("read: %v", err)
	}
	lat = tb.Eng.Now().Sub(start)
	tb.Eng.Run()
	if cache := CacheOf(stack); sp.Cache == CacheLSVD {
		if cache == nil {
			t.Fatal("cache-lsvd stack exposes no cache")
		}
		if st := cache.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Errorf("cache stats hits=%d misses=%d, want 1/0 (log-resident read)", st.Hits, st.Misses)
		}
	} else if cache != nil {
		t.Error("cache-none stack exposes a cache")
	}
	stack.Close()
	return lat
}

// TestCacheHitBeatsDirectPath wires the cache tier into both io_uring
// shapes and checks a log-resident read completes well under the direct
// path's cluster round trip.
func TestCacheHitBeatsDirectPath(t *testing.T) {
	for _, base := range []string{"deliba-k-hw", "deliba-k-sw"} {
		base := base
		t.Run(base, func(t *testing.T) {
			cfg := DefaultTestbedConfig()
			cfg.Jitter = false
			direct, err := NewTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := NewTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lDirect := readLatency(t, direct, base)
			lCached := readLatency(t, cached, base+"+cache-lsvd")
			if lCached*2 >= lDirect {
				t.Errorf("cache hit %v not well under direct %v", lCached, lDirect)
			}
		})
	}
}
