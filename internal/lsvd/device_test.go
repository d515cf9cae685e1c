package lsvd

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestDeviceCompletionOrder pins the device's two ordering properties with
// the default latencies and bandwidth: writes of any size complete in
// issue order, and a 4 KiB read booked right after a 4 KiB write
// completes first, because the read's latency is half the write's.
func TestDeviceCompletionOrder(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	d := NewDevice(eng, cfg.ReadLatency, cfg.WriteLatency, cfg.BytesPerSec)
	var got []string
	for i, n := range []int{64 << 10, 512, 4096, 1 << 20, 1, 4096} {
		d.Write(n, func() { got = append(got, fmt.Sprint("w", i)) })
	}
	eng.Run()
	if want := []string{"w0", "w1", "w2", "w3", "w4", "w5"}; !slices.Equal(got, want) {
		t.Fatalf("writes completed in order %v, want %v", got, want)
	}

	got = got[:0]
	d.Write(4096, func() { got = append(got, "write") })
	d.Read(4096, func() { got = append(got, "read") })
	eng.Run()
	if want := []string{"read", "write"}; !slices.Equal(got, want) {
		t.Fatalf("completed in order %v, want %v", got, want)
	}
}
