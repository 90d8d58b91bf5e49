// Errordetect demonstrates the paper's end-to-end story: a transient
// hardware fault strikes a running multiprocessor, a DVMC checker
// detects the resulting memory-consistency violation, and SafetyNet
// rolls the system back to a pre-error checkpoint, after which execution
// completes correctly.
//
// The demo injects a write-buffer reordering fault into a TSO system —
// exactly the kind of error that breaks Store→Store ordering invisibly
// on an unprotected machine.
package main

import (
	"fmt"
	"log"

	"dvmc"
)

func main() {
	cfg := dvmc.ScaledConfig()
	cfg.SNConfig.Interval = 10_000
	cfg.SNConfig.Keep = 10

	// --- Act 1: show the checkers detect the fault. ---
	// A reorder fault needs two stores buffered at the injection instant;
	// scan injection points until one lands.
	var res dvmc.InjectionResult
	var inj dvmc.Injection
	for cycle := dvmc.Cycle(4_000); cycle < 40_000; cycle += 1_000 {
		for node := 0; node < cfg.Nodes; node++ {
			inj = dvmc.Injection{Kind: dvmc.FaultWBReorder, Node: node, Cycle: cycle}
			r, err := dvmc.RunInjection(cfg, dvmc.Slashcode(), inj, 200_000)
			if err != nil {
				log.Fatalf("injection: %v", err)
			}
			if r.Applied {
				res = r
				goto applied
			}
		}
	}
	log.Fatal("no injection point had two buffered stores; rerun with another seed")
applied:
	fmt.Println("injected:", inj.Kind, "into node", inj.Node, "at cycle", inj.Cycle)
	if !res.Detected {
		log.Fatal("fault went undetected — this must never happen")
	}
	fmt.Printf("detected: %v, %d cycles after the fault took effect\n", res.DetectionKind, res.Latency)
	fmt.Printf("recoverable: %v (a checkpoint predating the error was still live)\n\n", res.Recoverable)

	// --- Act 2: recover and keep running. ---
	sys, err := dvmc.NewSystem(cfg, dvmc.Slashcode())
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	if _, err := sys.Run(80, 20_000_000); err != nil {
		log.Fatalf("pre-error run: %v", err)
	}
	errorCycle := sys.Now() - 2_000
	fmt.Printf("simulating a detected error at cycle %d; rolling back...\n", errorCycle)
	if !sys.Recover(errorCycle) {
		log.Fatal("no live checkpoint predating the error")
	}
	post, err := sys.Run(80, 40_000_000)
	if err != nil {
		log.Fatalf("post-recovery run: %v", err)
	}
	fmt.Printf("post-recovery: %d more transactions completed, %d violations\n",
		post.Transactions, len(sys.Violations()))
	if len(sys.Violations()) != 0 {
		log.Fatal("recovery left inconsistent state")
	}
	fmt.Println("\nend-to-end: fault -> detection -> rollback -> clean completion")
}
