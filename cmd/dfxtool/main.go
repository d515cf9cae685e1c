// Command dfxtool reports the DFX (Dynamic Function eXchange) configuration
// of the DeLiBA-K FPGA design: the reconfigurable partition in SLR0, its
// three reconfigurable modules, their resource usage, partial-bitstream
// sizes and MCAP load times — the software analogue of Vivado's DFX
// Configuration Analysis plus pr_verify.
//
// The `trace` subcommand inspects the per-I/O span trace files written by
// `delibabench -trace`:
//
//	dfxtool trace summary  <file>           per-cell sampling + critical path
//	dfxtool trace top      [-n 10] <file>   slowest exemplars across cells
//	dfxtool trace filter   [-cell s] [-trace id] [-o out] <file>
//	dfxtool trace diff     <old> <new>      per-cell critical-path deltas
//	dfxtool trace validate <file>           trace_event schema check
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/fpga"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func main() {
	// Argv dispatch for the trace subcommand has to happen before the DFX
	// flags are parsed.
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTraceCmd(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}

	verify := flag.Bool("verify", true, "run pr_verify across all configurations")
	exercise := flag.Bool("exercise", false, "simulate a live RM swap sequence")
	flag.Parse()

	eng := sim.NewEngine()
	m, _, err := crush.BuildCluster(crush.ClusterSpec{Hosts: 2, OSDsPerHost: 16})
	if err != nil {
		fatal(err)
	}
	code, err := erasure.New(4, 2)
	if err != nil {
		fatal(err)
	}
	shell, err := fpga.BuildShell(eng, fpga.ShellConfig{
		Map:  m,
		Rule: m.Rule("replicated_rule"),
		Code: code,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("device: %s (3 SLRs)\n", shell.Dev.Name)
	for _, slr := range shell.Dev.SLRs {
		fmt.Printf("  SLR%d: total %v\n        used  %v\n", slr.ID, slr.Total, slr.Used())
	}
	fmt.Printf("partition: %q in SLR%d, budget %v\n\n",
		shell.RP.Name, shell.RP.SLR, shell.RP.Budget)

	t := metrics.NewTable("DFX Configuration Analysis",
		"RM", "kernel", "LUTs", "LUT %", "FFs", "BRAM", "URAM", "partial BIT", "MCAP load")
	for _, row := range shell.RP.ConfigurationAnalysis() {
		t.AddRow(row.RM, row.Kernel.String(),
			row.Usage.LUTs, fmt.Sprintf("%.2f%%", row.UtilPct["LUT"]),
			row.Usage.Registers, row.Usage.BRAM, row.Usage.URAM,
			fmt.Sprintf("%.1fMB", float64(row.BitBytes)/1e6),
			row.LoadTime.String())
	}
	fmt.Println(t)

	if *verify {
		var configs []fpga.Configuration
		for _, rm := range shell.RP.RMs() {
			configs = append(configs, fpga.Configuration{RP: shell.RP, RM: rm})
		}
		if err := fpga.PrVerify(configs); err != nil {
			fmt.Println("pr_verify: FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("pr_verify: all configurations compatible")
	}

	if *exercise {
		fmt.Println("\nlive swap exercise (static region keeps serving):")
		for _, k := range []fpga.KernelID{fpga.KUniform, fpga.KList, fpga.KTree} {
			start := eng.Now()
			var err error
			eng.Wait(func(wake func()) {
				shell.LoadDynKernel(k, func(e error) {
					err = e
					wake()
				})
			})
			if err != nil {
				fmt.Println("  swap error:", err)
				break
			}
			fmt.Printf("  loaded %-8v in %v (power now %.1f W)\n",
				k, eng.Now().Sub(start), shell.Power())
		}
		eng.Run()
		fmt.Printf("reconfigurations: %d, cumulative reconfig time: %v\n",
			shell.RP.Reconfigs(), shell.RP.TotalReconfigTime())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfxtool:", err)
	os.Exit(1)
}
