// Fault-tolerance example: exercises the functional data path end to end —
// write real bytes through the RBD/rados stack into an erasure-coded pool,
// fail two OSDs holding data shards, and read everything back intact via
// Reed-Solomon reconstruction. Also shows CRUSH remapping a replicated
// pool's placements around a failed device.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, 2*sim.Microsecond)
	cfg := rados.DefaultClusterConfig() // 2 nodes x 16 OSDs, MemStore
	cluster, err := rados.NewCluster(eng, fabric, cfg)
	if err != nil {
		log.Fatal(err)
	}
	client, err := rados.NewClient(cluster, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		log.Fatal(err)
	}
	ecPool, err := cluster.CreateECPool("ec42", 4, 2, 128)
	if err != nil {
		log.Fatal(err)
	}
	replPool, err := cluster.CreateReplicatedPool("r2", 2, 128)
	if err != nil {
		log.Fatal(err)
	}
	img, err := rbd.NewImage("vol", 64<<20, 4<<20, ecPool)
	if err != nil {
		log.Fatal(err)
	}
	dev := rbd.NewDev(img, client)

	const chunk = 16 * 1024
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = make([]byte, chunk)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*31 + j)
		}
	}

	fmt.Println("writing 8 x 16 kB extents into the EC(4+2) image...")
	for i, data := range payloads {
		var err error
		eng.Wait(func(wake func()) {
			dev.WriteAtAsync(int64(i)*chunk, data, func(e error) {
				err = e
				wake()
			})
		})
		if err != nil {
			log.Fatalf("write %d: %v", i, err)
		}
	}

	// Fail two OSDs that hold shards of extent 0.
	acting, err := cluster.ActingSet(ecPool, cluster.PGOf(ecPool, img.ObjectName(0)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extent 0 shard placement (k=4, m=2): OSDs %v\n", acting)
	cluster.OSDs[acting[0]].SetUp(false)
	cluster.OSDs[acting[1]].SetUp(false)
	fmt.Printf("failed osd.%d and osd.%d (two data shards lost)\n", acting[0], acting[1])

	fmt.Println("reading everything back (degraded, reconstructing)...")
	for i, want := range payloads {
		var got []byte
		eng.Wait(func(wake func()) {
			dev.ReadAtAsync(int64(i)*chunk, chunk, func(b []byte, e error) {
				got, err = b, e
				wake()
			})
		})
		if err != nil {
			log.Fatalf("degraded read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("extent %d corrupted after reconstruction", i)
		}
	}
	fmt.Println("all extents intact: Reed-Solomon reconstruction verified ✔")

	// CRUSH remapping demo on the replicated pool.
	reweight := make([]uint32, cluster.Map.MaxDevices())
	for i := range reweight {
		reweight[i] = crush.WeightOne
	}
	const failed = 5
	reweight[failed] = 0
	moved := 0
	const samples = 2000
	for x := uint32(0); x < samples; x++ {
		before, _ := cluster.Map.Select(cluster.Map.Rule("replicated_osd"), x, replPool.Size, nil)
		after, _ := cluster.Map.Select(cluster.Map.Rule("replicated_osd"), x, replPool.Size, reweight)
		if !equalSets(before, after) {
			moved++
		}
	}
	fmt.Printf("CRUSH: marking osd.%d out remaps %.1f%% of placements (ideal ≈ %.1f%%)\n",
		failed, 100*float64(moved)/samples, 100*float64(replPool.Size)/32)
	eng.Run()
	fmt.Printf("simulation finished at t=%v\n", eng.Now())
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]int{}
	for _, v := range a {
		m[v]++
	}
	for _, v := range b {
		m[v]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return true
}
