// Multi-tenant example: the full DeLiBA-K hardware stack shared by a
// Zipf-skewed tenant population while tenant 1 turns noisy neighbor —
// 256 KiB writes at QD 64 against everyone else's 4 KiB traffic. The same
// run repeats across the blk-mq QoS axis (DESIGN.md §9.12): no scheduling,
// a per-tenant token bucket, and dmclock with cost-normalized tags. Tenant
// identity rides each I/O from the io_uring SQE through blk-mq, the SR-IOV
// driver and the cluster fan-out, so one stack serves every tenant.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fio"
)

const tenants = 8

func run(qos core.QoSKind) (*fio.TenantResult, *core.Testbed) {
	tb, err := core.NewTestbed(core.DefaultTestbedConfig())
	if err != nil {
		log.Fatal(err)
	}
	spec, err := core.ParseStackSpec("deliba-k-hw")
	if err != nil {
		log.Fatal(err)
	}
	spec.QoS = qos
	stack, err := tb.BuildStack(spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fio.RunTenants(tb.Eng, stack, fio.TenantJob{
		Job: fio.JobSpec{
			Name:       "victims",
			ReadPct:    70,
			Pattern:    core.Rand,
			BlockSize:  4096,
			QueueDepth: 8,
			Jobs:       3,
			Ops:        600,
			Seed:       42,
		},
		Tenants:      tenants,
		TenantTheta:  0.9,
		Hog:          1, // tenant 1 goes rogue
		HogDepth:     64,
		HogBlockSize: 256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res, tb
}

func main() {
	fmt.Printf("multi-tenant noisy neighbor: %d tenants on deliba-k-hw, "+
		"tenant 1 hogging with 256 KiB x QD64\n\n", tenants)
	fmt.Printf("%-12s %12s %12s %12s %10s %10s\n",
		"qos", "victim p50", "victim p99", "hog p99", "fairness", "throttled")
	for _, qos := range []core.QoSKind{core.QoSNone, core.QoSTokenBucket, core.QoSDMClock} {
		res, tb := run(qos)
		vh := res.VictimHist()
		var throttled uint64
		if tb.QoSSched != nil {
			throttled = tb.QoSSched.QoS().Throttled
		}
		fmt.Printf("%-12s %12v %12v %12v %10.3f %10d\n",
			qos, vh.Percentile(50), vh.Percentile(99),
			res.HogHist().Percentile(99), res.Fairness, throttled)
	}
	fmt.Println("\nfairness is Jain's index over cost-normalized service shares")
	fmt.Println("during the contention window; 1.0 = perfectly even slices.")
	fmt.Println("dmclock charges the hog 64 units per 256 KiB op, so victims keep")
	fmt.Println("their tail while the hog is shaped — without a stack per tenant.")
}
