package rados

import (
	"bytes"
	"sync"
	"testing"
)

// TestStorePayloadContract enforces the ObjectStore payload contract for
// the built-in stores: Write must neither mutate the caller's slice nor
// retain it (later caller-side mutation of the buffer must not show up in
// subsequent reads). The fan-out paths hand every store overlapping views
// of one shared zero buffer, so a violation here corrupts unrelated
// concurrent writes.
func TestStorePayloadContract(t *testing.T) {
	stores := map[string]ObjectStore{
		"MemStore":  NewMemStore(),
		"NullStore": NewNullStore(),
	}
	for name, st := range stores {
		payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		orig := append([]byte(nil), payload...)
		if err := st.Write("obj", 0, payload); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if !bytes.Equal(payload, orig) {
			t.Fatalf("%s: Write mutated the caller's payload: %v", name, payload)
		}
		// Caller reuses its buffer (exactly what Zeros does): the store
		// must have copied, not aliased.
		for i := range payload {
			payload[i] = 0xff
		}
		got, err := st.Read("obj", 0, len(orig))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if st.Size("obj") != len(orig) {
			t.Fatalf("%s: size %d, want %d", name, st.Size("obj"), len(orig))
		}
		if name == "MemStore" && !bytes.Equal(got, orig) {
			t.Fatalf("%s: store aliased the payload: read %v, want %v", name, got, orig)
		}
		if name == "NullStore" {
			// Metadata-only: reads are all zeroes regardless of payload.
			for i, b := range got {
				if b != 0 {
					t.Fatalf("%s: byte %d = %#x, want 0", name, i, b)
				}
			}
		}
	}
}

// TestShardKeyBuilders checks the append-style shard-key builders against
// the formats the Sprintf versions used to produce, and that the Append
// forms are allocation-free with a capacious buffer.
func TestShardKeyBuilders(t *testing.T) {
	if got, want := ShardKey("vol/obj", 4096, 3), "vol/obj:4096.s3"; got != want {
		t.Fatalf("ShardKey = %q, want %q", got, want)
	}
	if got, want := StripeShard("vol/obj:4096", 11), "vol/obj:4096.s11"; got != want {
		t.Fatalf("StripeShard = %q, want %q", got, want)
	}
	if got, want := ShardKey("o", 0, 0), "o:0.s0"; got != want {
		t.Fatalf("ShardKey = %q, want %q", got, want)
	}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendShardKey(buf[:0], "vol/obj", 1<<20, 9)
		buf = AppendStripeShard(buf[:0], "vol/obj:123", 4)
	})
	if allocs != 0 {
		t.Fatalf("Append builders allocated %.1f/op, want 0", allocs)
	}
}

// TestZerosBeyondPoolRaceFree: a payload above the shared pool is a fresh
// slice and the pool never changes, so writers on parallel experiment
// cells and shard workers share no mutable state (checked under -race);
// within the pool, Zeros allocates nothing.
func TestZerosBeyondPoolRaceFree(t *testing.T) {
	pool := len(zeroPool)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 64; i++ {
				if b := Zeros(pool + i); len(b) != pool+i {
					t.Errorf("Zeros(%d) has length %d", pool+i, len(b))
				}
			}
		}()
	}
	wg.Wait()
	if len(zeroPool) != pool {
		t.Fatalf("pool resized from %d to %d", pool, len(zeroPool))
	}
	if allocs := testing.AllocsPerRun(100, func() { Zeros(pool) }); allocs != 0 {
		t.Fatalf("Zeros within the pool allocated %.1f/op", allocs)
	}
}
