// Package rbd implements the RADOS block device mapping: a virtual disk
// image striped across fixed-size objects in a rados pool, as the Ceph RBD
// kernel driver presents it. DeLiBA-K's UIFD embeds this mapping in its
// Ceph-RBD virtual-disk driver (paper §III-B); VMs see the image through an
// SR-IOV virtual function.
package rbd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/rados"
	"repro/internal/sim"
)

// ErrOutOfRange reports an access outside the image; Extents wraps it so
// callers can translate mapping failures (e.g. to -EINVAL) without string
// matching.
var ErrOutOfRange = errors.New("rbd: range outside image")

// DefaultObjectBytes is the standard RBD object size (4 MiB).
const DefaultObjectBytes = 4 << 20

// Image is a virtual disk striped over pool objects.
type Image struct {
	Name        string
	Size        int64
	ObjectBytes int
	Pool        *rados.Pool

	// names interns backing-object names by stripe index, filled lazily
	// on first use of each index (see ObjectName).
	names nameTable
}

// nameTable is an image's lazily built object-name table. The table is
// allocated on the first in-range lookup and each slot is filled on first
// use; slots are atomic so one image can be mapped from several shard
// workers at once (racing fills store equal strings, either may win).
type nameTable struct {
	once  sync.Once
	slots []atomic.Pointer[string]
}

// maxInternedObjects bounds the name table: images striped over more
// objects than this format names on every call instead.
const maxInternedObjects = 1 << 16

// NewImage describes an image; no I/O happens until reads/writes.
func NewImage(name string, size int64, objectBytes int, pool *rados.Pool) (*Image, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rbd: bad image size %d", size)
	}
	if objectBytes <= 0 {
		objectBytes = DefaultObjectBytes
	}
	if pool == nil {
		return nil, fmt.Errorf("rbd: nil pool")
	}
	return &Image{Name: name, Size: size, ObjectBytes: objectBytes, Pool: pool}, nil
}

// Objects returns the number of backing objects.
func (im *Image) Objects() int64 {
	return (im.Size + int64(im.ObjectBytes) - 1) / int64(im.ObjectBytes)
}

// ObjectName returns the backing object name for stripe index i, using the
// rbd_data naming convention. Names of in-range indices are interned: the
// first call per index formats the name, later calls return it without
// allocating.
func (im *Image) ObjectName(i int64) string {
	t := &im.names
	t.once.Do(func() {
		if objs := im.Objects(); objs <= maxInternedObjects {
			t.slots = make([]atomic.Pointer[string], objs)
		}
	})
	if i < 0 || i >= int64(len(t.slots)) {
		return im.formatName(i)
	}
	if s := t.slots[i].Load(); s != nil {
		return *s
	}
	s := im.formatName(i)
	t.slots[i].Store(&s)
	return s
}

// formatName formats stripe index i's object name: "rbd_data.<image>."
// followed by i as 16 zero-padded hex digits.
func (im *Image) formatName(i int64) string {
	if i < 0 {
		return fmt.Sprintf("rbd_data.%s.%016x", im.Name, i)
	}
	var hex [16]byte
	for k := len(hex) - 1; k >= 0; k-- {
		hex[k] = "0123456789abcdef"[i&0xf]
		i >>= 4
	}
	return "rbd_data." + im.Name + "." + string(hex[:])
}

// Extent is a contiguous byte range within one backing object.
type Extent struct {
	Object string
	Off    int
	Len    int
}

// Extents maps a virtual byte range to backing-object extents.
func (im *Image) Extents(off int64, n int) ([]Extent, error) {
	var out []Extent
	if err := im.VisitExtents(off, n, true, func(e Extent) error {
		out = append(out, e)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// VisitExtents maps [off, off+n) and invokes visit once per backing-object
// extent, in image order. A mapping failure returns ErrOutOfRange (wrapped)
// before any extent is visited. With stopOnErr the first visit error returns
// immediately and the remaining extents are skipped (how the kernel RBD
// target aborts a request); otherwise every extent is visited and the first
// error seen is returned (how the NBD daemons drain a request).
func (im *Image) VisitExtents(off int64, n int, stopOnErr bool, visit func(Extent) error) error {
	if off < 0 || n < 0 || off+int64(n) > im.Size {
		return fmt.Errorf("%w: [%d,%d) in image of %d bytes", ErrOutOfRange, off, off+int64(n), im.Size)
	}
	var firstErr error
	for n > 0 {
		idx := off / int64(im.ObjectBytes)
		inOff := int(off % int64(im.ObjectBytes))
		take := im.ObjectBytes - inOff
		if take > n {
			take = n
		}
		if err := visit(Extent{Object: im.ObjectName(idx), Off: inOff, Len: take}); err != nil {
			if stopOnErr {
				return err
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		off += int64(take)
		n -= take
	}
	return firstErr
}

// Dev is a block-device view of an image bound to a rados client: the
// object the kernel RBD driver exposes as /dev/rbdX.
type Dev struct {
	Image  *Image
	Client *rados.Client
}

// NewDev binds an image to a client.
func NewDev(im *Image, cl *rados.Client) *Dev {
	return &Dev{Image: im, Client: cl}
}

// WriteAt stores data at the virtual offset, spanning objects as needed.
// Multi-object spans issue in parallel.
func (d *Dev) WriteAt(p *sim.Proc, off int64, data []byte) error {
	exts, err := d.Image.Extents(off, len(data))
	if err != nil {
		return err
	}
	if len(exts) == 1 {
		return d.Client.Write(p, d.Image.Pool, exts[0].Object, exts[0].Off, data)
	}
	eng := d.Client.Cluster.Eng
	comps := make([]*sim.Completion, len(exts))
	pos := 0
	for i, e := range exts {
		comp := eng.NewCompletion()
		comps[i] = comp
		e := e
		chunk := data[pos : pos+e.Len]
		pos += e.Len
		eng.Spawn("rbd-write", func(sub *sim.Proc) {
			comp.Complete(nil, d.Client.Write(sub, d.Image.Pool, e.Object, e.Off, chunk))
		})
	}
	var firstErr error
	for _, c := range comps {
		if _, err := p.Await(c); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ReadAt returns n bytes at the virtual offset.
func (d *Dev) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	exts, err := d.Image.Extents(off, n)
	if err != nil {
		return nil, err
	}
	if len(exts) == 1 {
		return d.Client.Read(p, d.Image.Pool, exts[0].Object, exts[0].Off, exts[0].Len)
	}
	eng := d.Client.Cluster.Eng
	comps := make([]*sim.Completion, len(exts))
	for i, e := range exts {
		comp := eng.NewCompletion()
		comps[i] = comp
		e := e
		eng.Spawn("rbd-read", func(sub *sim.Proc) {
			data, err := d.Client.Read(sub, d.Image.Pool, e.Object, e.Off, e.Len)
			comp.Complete(data, err)
		})
	}
	out := make([]byte, 0, n)
	var firstErr error
	for _, c := range comps {
		v, err := p.Await(c)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if b, ok := v.([]byte); ok {
			out = append(out, b...)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
