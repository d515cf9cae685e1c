// Package rados models a Ceph-like distributed object store: OSDs with a
// queued service model, pools (replicated and erasure-coded) placed by
// CRUSH, and the primary-copy I/O protocol the software baseline uses.
//
// The model separates three concerns:
//
//   - placement: internal/crush (pure function of the map),
//   - timing: OSD service lanes + internal/netsim message costs,
//   - data: an ObjectStore per OSD (MemStore keeps real bytes so integration
//     tests can verify round trips and erasure recovery; NullStore keeps
//     only metadata for high-volume benchmarks).
package rados

import (
	"fmt"
	"sort"
)

// ObjectStore is the per-OSD backing store abstraction.
//
// Payload contract: implementations must treat the data slice passed to
// Write as READ-ONLY and must not retain it after Write returns — copy the
// bytes if they are kept (MemStore does), or ignore them (NullStore).
// Callers rely on this: the timing-only write paths pass overlapping views
// of one shared zero buffer (Zeros), and the client EC path hands the same shard
// slices to the codec and the store. A store that mutated or aliased a
// payload would corrupt unrelated in-flight writes. TestStorePayloadContract
// enforces both halves for the built-in stores.
type ObjectStore interface {
	// Write stores data at byte offset off of the named object, growing it
	// as needed. The data slice is read-only and must not be retained.
	Write(obj string, off int, data []byte) error
	// Read returns n bytes at offset off. Reading past the written extent
	// returns zero bytes (objects are sparse, as in RADOS). The returned
	// slice is read-only: NullStore serves every read from Zeros.
	Read(obj string, off, n int) ([]byte, error)
	// Size returns the current object size in bytes (0 if absent).
	Size(obj string) int
	// Objects returns the number of stored objects.
	Objects() int
	// ObjectNames returns the stored object names, sorted.
	ObjectNames() []string
	// Delete removes an object; deleting an absent object is a no-op.
	Delete(obj string)
}

// zeroPool backs Zeros. It holds a whole 4 MiB object, RBD's default
// object size, so backfilling one allocates nothing. Nothing writes it,
// so parallel experiment cells and shard workers share it without a lock;
// as a package-level array it adds nothing to the GC heap, and a page of
// it takes memory only once a reader touches it.
var zeroPool [4 << 20]byte

// Zeros returns an n-byte zero payload for the timing-only paths: write
// payloads (the stores there only use their length), NullStore reads and
// the non-functional client's read results. Up to 4 MiB it is a view of
// one shared array and allocates nothing; beyond that it is a fresh slice.
// Under the payload contract above, nobody writes to it.
func Zeros(n int) []byte {
	if n > len(zeroPool) {
		return make([]byte, n)
	}
	return zeroPool[:n]
}

// MemStore keeps full object payloads in memory.
type MemStore struct {
	objs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objs: make(map[string][]byte)}
}

// Write implements ObjectStore.
func (s *MemStore) Write(obj string, off int, data []byte) error {
	if off < 0 {
		return fmt.Errorf("rados: negative offset %d", off)
	}
	buf := s.objs[obj]
	need := off + len(data)
	if need > len(buf) {
		n := make([]byte, need)
		copy(n, buf)
		buf = n
	}
	copy(buf[off:], data)
	s.objs[obj] = buf
	return nil
}

// Read implements ObjectStore.
func (s *MemStore) Read(obj string, off, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("rados: bad read off=%d n=%d", off, n)
	}
	out := make([]byte, n)
	buf := s.objs[obj]
	if off < len(buf) {
		copy(out, buf[off:])
	}
	return out, nil
}

// Size implements ObjectStore.
func (s *MemStore) Size(obj string) int { return len(s.objs[obj]) }

// Objects implements ObjectStore.
func (s *MemStore) Objects() int { return len(s.objs) }

// Delete implements ObjectStore.
func (s *MemStore) Delete(obj string) { delete(s.objs, obj) }

// ObjectNames implements ObjectStore.
func (s *MemStore) ObjectNames() []string { return sortedKeys(s.objs) }

// sortedKeys returns a store map's object names, sorted.
func sortedKeys[V any](objs map[string]V) []string {
	names := make([]string, 0, len(objs))
	for n := range objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NullStore tracks object extents only; payloads are discarded. Benchmarks
// use it so multi-gigabyte simulated workloads do not hold real memory.
type NullStore struct {
	sizes map[string]int
}

// NewNullStore returns an empty metadata-only store.
func NewNullStore() *NullStore {
	return &NullStore{sizes: make(map[string]int)}
}

// Write implements ObjectStore.
func (s *NullStore) Write(obj string, off int, data []byte) error {
	if off < 0 {
		return fmt.Errorf("rados: negative offset %d", off)
	}
	if end := off + len(data); end > s.sizes[obj] {
		s.sizes[obj] = end
	}
	return nil
}

// Read implements ObjectStore. A NullStore's content is always zero, so
// every read is a view of Zeros: read-only, like all Read results.
func (s *NullStore) Read(obj string, off, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("rados: bad read off=%d n=%d", off, n)
	}
	return Zeros(n), nil
}

// Size implements ObjectStore.
func (s *NullStore) Size(obj string) int { return s.sizes[obj] }

// Objects implements ObjectStore.
func (s *NullStore) Objects() int { return len(s.sizes) }

// ObjectNames implements ObjectStore.
func (s *NullStore) ObjectNames() []string { return sortedKeys(s.sizes) }

// Delete implements ObjectStore.
func (s *NullStore) Delete(obj string) { delete(s.sizes, obj) }
