// Quickstart: assemble an 8-node TSO directory system with full DVMC and
// SafetyNet, run a database-style workload for 200 transactions, and
// print what the verification hardware observed.
package main

import (
	"fmt"
	"log"

	"dvmc"
)

func main() {
	// ScaledConfig shrinks the paper's cache geometry (Tables 6-7) so a
	// whole run finishes in well under a second; DefaultConfig holds the
	// paper's exact parameters.
	cfg := dvmc.ScaledConfig()

	sys, err := dvmc.NewSystem(cfg, dvmc.OLTP())
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}

	res, err := sys.Run(200, 50_000_000)
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Printf("ran %d transactions in %d cycles on %d %v cores (%v protocol)\n",
		res.Transactions, res.Cycles, cfg.Nodes, cfg.Model, cfg.Protocol)
	fmt.Printf("memory system: %d L1 misses, %d L2 misses, %d dirty writebacks\n",
		res.L1Misses, res.L2Misses, res.Writebacks)
	fmt.Printf("verification:  %d operations replayed through the verification stage\n", res.ReplayLoads)
	fmt.Printf("               %d Inform-Epoch messages checked by the memory epoch tables\n", res.InformsProcessed)
	fmt.Printf("               %d SafetyNet checkpoints taken (recovery window %d cycles)\n",
		res.Checkpoints, sys.RecoveryWindow())
	fmt.Printf("violations:    %d (a fault-free run must report zero)\n", res.Violations)

	if res.Violations != 0 {
		for _, v := range sys.Violations() {
			fmt.Println("  ", v)
		}
		log.Fatal("unexpected violations")
	}
}
