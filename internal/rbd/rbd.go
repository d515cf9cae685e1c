// Package rbd implements the RADOS block device mapping: a virtual disk
// image striped across fixed-size objects in a rados pool, as the Ceph RBD
// kernel driver presents it. DeLiBA-K's UIFD embeds this mapping in its
// Ceph-RBD virtual-disk driver (paper §III-B); VMs see the image through an
// SR-IOV virtual function.
package rbd

import (
	"errors"
	"fmt"

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

	// names interns backing-object names by stripe index: allocated on
	// the first in-range lookup, each slot filled on first use of its
	// index (see ObjectName).
	names []string
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
	if im.names == nil {
		if objs := im.Objects(); objs <= maxInternedObjects {
			im.names = make([]string, objs)
		}
	}
	if i < 0 || i >= int64(len(im.names)) {
		return im.formatName(i)
	}
	if s := im.names[i]; s != "" {
		return s
	}
	s := im.formatName(i)
	im.names[i] = s
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

// CheckRange reports whether [off, off+n) lies inside the image, as an
// ErrOutOfRange (wrapped) when it does not.
func (im *Image) CheckRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > im.Size {
		return fmt.Errorf("%w: [%d,%d) in image of %d bytes", ErrOutOfRange, off, off+int64(n), im.Size)
	}
	return nil
}

// ExtentAt maps the first backing-object extent of [off, off+n), a
// non-empty range CheckRange accepted. Callers walking a range one extent
// at a time advance off by the extent's Len and shrink n by it.
func (im *Image) ExtentAt(off int64, n int) Extent {
	idx := off / int64(im.ObjectBytes)
	inOff := int(off % int64(im.ObjectBytes))
	return Extent{Object: im.ObjectName(idx), Off: inOff, Len: min(im.ObjectBytes-inOff, n)}
}

// VisitExtents maps [off, off+n) and invokes visit once per backing-object
// extent, in image order. A mapping failure returns ErrOutOfRange (wrapped)
// before any extent is visited. With stopOnErr the first visit error returns
// immediately and the remaining extents are skipped (how the kernel RBD
// target aborts a request); otherwise every extent is visited and the first
// error seen is returned (how the NBD daemons drain a request).
func (im *Image) VisitExtents(off int64, n int, stopOnErr bool, visit func(Extent) error) error {
	if err := im.CheckRange(off, n); err != nil {
		return err
	}
	var firstErr error
	for n > 0 {
		e := im.ExtentAt(off, n)
		if err := visit(e); err != nil {
			if stopOnErr {
				return err
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		off += int64(e.Len)
		n -= e.Len
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

// WriteAtAsync stores data at the virtual offset, spanning objects as
// needed, and calls done with the first error. A single-object write is the
// client's own chain; a multi-object span issues one write per object in
// parallel, each one event after the call, and finishes once all have.
func (d *Dev) WriteAtAsync(off int64, data []byte, done func(error)) {
	exts, err := d.Image.Extents(off, len(data))
	if err != nil {
		done(err)
		return
	}
	pool := d.Image.Pool
	if len(exts) == 1 {
		d.Client.WriteAsync(pool, exts[0].Object, exts[0].Off, data, rados.ReqOpts{}, done)
		return
	}
	g := d.newJoin(len(exts), func(_ [][]byte, err error) { done(err) })
	pos := 0
	for i, e := range exts {
		chunk := data[pos : pos+e.Len]
		pos += e.Len
		g.eng.Schedule(0, func() {
			d.Client.WriteAsync(pool, e.Object, e.Off, chunk, rados.ReqOpts{}, func(err error) {
				g.complete(i, nil, err)
			})
		})
	}
	g.await()
}

// ReadAtAsync reads n bytes at the virtual offset, issuing like
// WriteAtAsync, and calls done with them.
func (d *Dev) ReadAtAsync(off int64, n int, done func([]byte, error)) {
	exts, err := d.Image.Extents(off, n)
	if err != nil {
		done(nil, err)
		return
	}
	pool := d.Image.Pool
	if len(exts) == 1 {
		d.Client.ReadAsync(pool, exts[0].Object, exts[0].Off, exts[0].Len, rados.ReqOpts{}, done)
		return
	}
	g := d.newJoin(len(exts), func(parts [][]byte, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		out := make([]byte, 0, n)
		for _, b := range parts {
			out = append(out, b...)
		}
		done(out, nil)
	})
	for i, e := range exts {
		g.eng.Schedule(0, func() {
			d.Client.ReadAsync(pool, e.Object, e.Off, e.Len, rados.ReqOpts{}, func(b []byte, err error) {
				g.complete(i, b, err)
			})
		})
	}
	g.await()
}

// join collects a multi-object request's per-object results, awaiting
// them in image order: it parks on the first unfinished part, resumes one
// event after that part finishes, and passes parts that finished meanwhile
// at no cost.
type join struct {
	eng     *sim.Engine
	fired   []bool
	parts   [][]byte
	errs    []error
	next    int
	waiting bool
	done    func(parts [][]byte, firstErr error)
}

func (d *Dev) newJoin(n int, done func([][]byte, error)) *join {
	return &join{eng: d.Client.Cluster.Eng, fired: make([]bool, n),
		parts: make([][]byte, n), errs: make([]error, n), done: done}
}

func (g *join) complete(i int, b []byte, err error) {
	g.fired[i], g.parts[i], g.errs[i] = true, b, err
	if g.waiting && i == g.next {
		g.waiting = false
		g.eng.Schedule(0, g.await)
	}
}

func (g *join) await() {
	for ; g.next < len(g.fired); g.next++ {
		if !g.fired[g.next] {
			g.waiting = true
			return
		}
	}
	var firstErr error
	for _, err := range g.errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	g.done(g.parts, firstErr)
}
