package lsvd

import "repro/internal/sim"

// Device models an NVMe-class local cache device as a pipelined FIFO:
// transfers serialize on bandwidth (bus), and each op additionally
// pays a fixed per-op latency after its transfer slot. Writes complete
// in issue order, the property the cache's newest-wins write-log index
// insertion relies on: it inserts each record when its write is
// durable. Reads and writes pay different latencies after the shared
// transfer FIFO, so a read may complete before a write issued ahead of
// it.
type Device struct {
	eng      *sim.Engine
	readLat  sim.Duration
	writeLat sim.Duration
	perByte  float64 // nanoseconds per byte
	bus      sim.Server

	Reads, Writes         uint64
	ReadBytes, WriteBytes uint64
}

// NewDevice returns a device with the given per-op latencies and
// sustained bandwidth in bytes per second.
func NewDevice(eng *sim.Engine, readLat, writeLat sim.Duration, bytesPerSec float64) *Device {
	return &Device{
		eng:      eng,
		readLat:  readLat,
		writeLat: writeLat,
		perByte:  1e9 / bytesPerSec,
	}
}

func (d *Device) xfer(n int) sim.Duration {
	return sim.Duration(float64(n) * d.perByte)
}

// access books an n-byte transfer and schedules fn at its completion.
func (d *Device) access(n int, lat sim.Duration, fn func()) {
	d.eng.At(d.bus.Book(d.eng.Now(), d.xfer(n)).Add(lat), fn)
}

// Read books an n-byte read ending with fn.
func (d *Device) Read(n int, fn func()) {
	d.Reads++
	d.ReadBytes += uint64(n)
	d.access(n, d.readLat, fn)
}

// Write books an n-byte write (durable at fn).
func (d *Device) Write(n int, fn func()) {
	d.Writes++
	d.WriteBytes += uint64(n)
	d.access(n, d.writeLat, fn)
}
