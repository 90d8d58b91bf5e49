// Capacityplan is a deployment-planning study: a team considering DVMC
// for a high-availability database server wants to know how much
// interconnect headroom and verification-cache capacity the checkers
// need. The example sweeps link bandwidth and VC size on the OLTP
// workload and prints the cost curves (the paper's Figures 7 and 8 tell
// the same story for their testbed).
package main

import (
	"fmt"
	"log"

	"dvmc"
)

func run(cfg dvmc.Config, w dvmc.Workload) dvmc.Results {
	sys, err := dvmc.NewSystem(cfg, w)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	res, err := sys.Run(120, 60_000_000)
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	if len(sys.Violations()) != 0 {
		log.Fatalf("clean run flagged: %v", sys.Violations()[0])
	}
	return res
}

func main() {
	w := dvmc.OLTP()

	fmt.Println("== link bandwidth sweep: is DVMC's inform traffic a bottleneck? ==")
	fmt.Printf("%-10s %16s %16s %12s\n", "GB/s", "base cycles", "DVMC cycles", "overhead")
	for _, gbps := range []float64{1.0, 1.5, 2.0, 2.5, 3.0} {
		base := dvmc.ScaledConfig().WithLinkGBps(gbps)
		base.DVMC = dvmc.Off()
		base.SafetyNet = false
		b := run(base, w)

		prot := dvmc.ScaledConfig().WithLinkGBps(gbps)
		p := run(prot, w)

		fmt.Printf("%-10.1f %16d %16d %11.1f%%\n",
			gbps, b.Cycles, p.Cycles, 100*(float64(p.Cycles)/float64(b.Cycles)-1))
	}

	fmt.Println("\n== verification cache sweep: how small can the VC be? ==")
	fmt.Printf("%-10s %16s %14s %14s\n", "VC words", "cycles", "VC stalls", "replay misses")
	for _, words := range []int{4, 8, 16, 32, 64, 128} {
		cfg := dvmc.ScaledConfig()
		cfg.Proc.VCWords = words
		res := run(cfg, w)
		fmt.Printf("%-10d %16d %14d %14d\n", words, res.Cycles, res.VCFullStalls, res.ReplayL1Misses)
	}

	fmt.Println("\n== checkpoint interval sweep: recovery window vs logging traffic ==")
	fmt.Printf("%-12s %12s %14s %16s\n", "interval", "window", "log msgs", "cycles")
	for _, interval := range []uint64{5000, 10000, 25000, 50000} {
		cfg := dvmc.ScaledConfig()
		cfg.SNConfig.Interval = dvmc.Cycle(interval)
		res := run(cfg, w)
		fmt.Printf("%-12d %12d %14d %16d\n",
			interval, cfg.SNConfig.Window(), res.LogMessages, res.Cycles)
	}
}
