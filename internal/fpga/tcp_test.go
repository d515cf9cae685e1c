package fpga

import (
	"testing"

	"repro/internal/sim"
)

func TestSegmentationMath(t *testing.T) {
	const p = MaxPacketStandard - headerBytes
	if p != 1518-58 {
		t.Fatalf("payload = %d", p)
	}
	if Segments(MaxPacketStandard, 0) != 1 {
		t.Fatal("ack should be one segment")
	}
	if Segments(MaxPacketStandard, p) != 1 || Segments(MaxPacketStandard, p+1) != 2 {
		t.Fatal("segment rounding wrong")
	}
	// 128 kB at standard MTU ≈ 90 segments.
	if got := Segments(MaxPacketStandard, 131072); got != (131072+p-1)/p {
		t.Fatalf("128k segments = %d", got)
	}
	// Jumbo frames need far fewer.
	std, jumbo := Segments(MaxPacketStandard, 131072), Segments(MaxPacketJumbo, 131072)
	if jumbo >= std/4 {
		t.Fatalf("jumbo segments %d not ≪ standard %d", jumbo, std)
	}
}

// TestPipeTime pins the TX pipeline occupancy: CyclesPerSegment cycles per
// segment at the 260 MHz CMAC clock.
func TestPipeTime(t *testing.T) {
	for _, c := range []struct {
		mtu, n int
		want   sim.Duration
	}{
		{MaxPacketStandard, 0, 692},     // a bare ack: 180 cycles
		{MaxPacketJumbo, 4096, 692},     // 1 segment
		{MaxPacketStandard, 4096, 2076}, // 3 segments: 540 cycles
	} {
		if got := PipeTime(c.mtu, c.n); got != c.want {
			t.Errorf("PipeTime(%d, %d) = %v, want %v", c.mtu, c.n, got, c.want)
		}
	}
}
