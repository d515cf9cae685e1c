// Quickstart: build the paper's testbed, run a 4 kB random-write workload
// on hardware-accelerated DeLiBA-K and on the DeLiBA-2 baseline, and print
// the speed-up — the headline experiment in ~40 lines.
package main

import (
	"fmt"
	"log"

	deliba "repro"
)

func run(name string) *deliba.Result {
	tb, err := deliba.NewTestbed(deliba.DefaultTestbedConfig())
	if err != nil {
		log.Fatal(err)
	}
	spec, err := deliba.ParseStackSpec(name)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := tb.BuildStack(spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := deliba.RunWorkload(tb, stack, deliba.Workload{
		ReadPct:    0,
		Random:     true,
		BlockSize:  4096,
		QueueDepth: 16,
		Jobs:       3,
		Ops:        1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("DeLiBA-K quickstart: 4 kB random writes, 3 jobs, QD 16")
	dk := run("deliba-k-hw")
	d2 := run("deliba-2-hw")
	fmt.Printf("  deliba-k-hw: %8.1f MB/s  %6.1f kIOPS  mean latency %v\n",
		dk.MBps(), dk.KIOPS(), dk.Lat.Mean())
	fmt.Printf("  deliba-2-hw: %8.1f MB/s  %6.1f kIOPS  mean latency %v\n",
		d2.MBps(), d2.KIOPS(), d2.Lat.Mean())
	fmt.Printf("  speed-up:    %.2fx throughput (paper: up to 3.45x)\n",
		dk.MBps()/d2.MBps())
}
