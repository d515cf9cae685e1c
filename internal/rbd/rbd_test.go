package rbd

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
)

func newStack(t *testing.T) (*sim.Engine, *rados.Cluster, *rados.Client, *rados.Pool) {
	t.Helper()
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, 5*sim.Microsecond)
	c, err := rados.NewCluster(eng, fabric, rados.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rados.NewClient(c, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreateReplicatedPool("rbd", 3, 128)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, cl, pool
}

func TestImageValidation(t *testing.T) {
	_, _, _, pool := newStack(t)
	if _, err := NewImage("x", 0, 0, pool); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewImage("x", 100, 0, nil); err == nil {
		t.Fatal("nil pool accepted")
	}
	im, err := NewImage("x", 100, 0, pool)
	if err != nil {
		t.Fatal(err)
	}
	if im.ObjectBytes != DefaultObjectBytes {
		t.Fatal("default object size not applied")
	}
}

func TestObjectNaming(t *testing.T) {
	_, _, _, pool := newStack(t)
	im, _ := NewImage("vol1", 16<<20, 4<<20, pool)
	if im.Objects() != 4 {
		t.Fatalf("Objects = %d", im.Objects())
	}
	if got := im.ObjectName(1); got != "rbd_data.vol1.0000000000000001" {
		t.Fatalf("ObjectName = %q", got)
	}
}

func TestExtentsSingleObject(t *testing.T) {
	_, _, _, pool := newStack(t)
	im, _ := NewImage("v", 8<<20, 4<<20, pool)
	exts, err := im.Extents(100, 4096)
	if err != nil || len(exts) != 1 {
		t.Fatalf("exts = %v, %v", exts, err)
	}
	if exts[0].Off != 100 || exts[0].Len != 4096 || exts[0].Object != im.ObjectName(0) {
		t.Fatalf("extent = %+v", exts[0])
	}
}

func TestExtentsSpanObjects(t *testing.T) {
	_, _, _, pool := newStack(t)
	im, _ := NewImage("v", 16<<20, 4<<20, pool)
	// 8 KiB straddling the first object boundary.
	exts, err := im.Extents(4<<20-4096, 8192)
	if err != nil || len(exts) != 2 {
		t.Fatalf("exts = %v, %v", exts, err)
	}
	if exts[0].Len != 4096 || exts[1].Len != 4096 {
		t.Fatalf("split lens: %+v", exts)
	}
	if exts[0].Object == exts[1].Object {
		t.Fatal("same object on both sides of boundary")
	}
	if exts[1].Off != 0 {
		t.Fatal("second extent must start at object head")
	}
}

func TestExtentsBoundsChecked(t *testing.T) {
	_, _, _, pool := newStack(t)
	im, _ := NewImage("v", 1<<20, 4<<20, pool)
	if _, err := im.Extents(-1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := im.Extents(1<<20-5, 10); err == nil {
		t.Fatal("overrun accepted")
	}
}

func TestDevRoundTripWithinObject(t *testing.T) {
	eng, _, cl, pool := newStack(t)
	im, _ := NewImage("vol", 64<<20, 4<<20, pool)
	dev := NewDev(im, cl)
	payload := []byte("rbd single-object payload")
	var got []byte
	roundTrip(eng, dev, 12345, payload, &got, t)
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestDevRoundTripAcrossObjects(t *testing.T) {
	eng, c, cl, pool := newStack(t)
	im, _ := NewImage("vol", 64<<20, 1<<20, pool)
	dev := NewDev(im, cl)
	payload := make([]byte, 3<<20) // spans 3-4 objects
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	off := int64(1<<20 - 512)
	var got []byte
	roundTrip(eng, dev, off, payload, &got, t)
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-object round trip corrupted")
	}
	// The data must be spread across multiple backing objects.
	totalObjects := 0
	for _, o := range c.OSDs {
		totalObjects += o.Store.Objects()
	}
	if totalObjects < 4*3 { // >=4 objects x 3 replicas
		t.Fatalf("only %d stored objects", totalObjects)
	}
}

func TestDevOutOfRange(t *testing.T) {
	eng, _, cl, pool := newStack(t)
	im, _ := NewImage("vol", 1<<20, 1<<20, pool)
	dev := NewDev(im, cl)
	calls := 0
	eng.Schedule(0, func() {
		dev.WriteAtAsync(1<<20, []byte{1}, func(err error) {
			calls++
			if err == nil {
				t.Error("write past end accepted")
			}
			dev.ReadAtAsync(-5, 10, func(_ []byte, err error) {
				calls++
				if err == nil {
					t.Error("negative read accepted")
				}
			})
		})
	})
	eng.Run()
	if calls != 2 {
		t.Fatalf("%d of 2 callbacks ran", calls)
	}
}

// roundTrip writes payload at off, then reads it back into *got, as one
// callback chain started at time 0.
func roundTrip(eng *sim.Engine, dev *Dev, off int64, payload []byte, got *[]byte, t *testing.T) {
	eng.Schedule(0, func() {
		dev.WriteAtAsync(off, payload, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			dev.ReadAtAsync(off, len(payload), func(b []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
				}
				*got = b
			})
		})
	})
}
