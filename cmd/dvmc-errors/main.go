// Command dvmc-errors runs the Section 6.1 fault-injection campaign:
// random errors (bit flips; dropped, reordered, mis-routed, duplicated
// messages; LSQ and write-buffer faults; controller-logic faults) are
// injected into running systems and DVMC's detection is measured.
//
// Example:
//
//	dvmc-errors -n 40 -workload slash -model TSO -protocol directory
//
// Exit codes: 0 every applied fault was detected or masked, 1 usage or
// setup error, 2 undetected faults or unrecoverable detections.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dvmc"
)

func main() {
	fs := flag.NewFlagSet("dvmc-errors", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		n            = fs.Int("n", 20, "number of faults to inject")
		workloadName = fs.String("workload", "oltp", "workload under test")
		modelName    = fs.String("model", "TSO", "consistency model: SC|TSO|PSO|RMO")
		protoName    = fs.String("protocol", "directory", "coherence protocol")
		budget       = fs.Uint64("budget", 400_000, "post-injection observation cycles")
		seed         = fs.Uint64("seed", 1, "campaign seed")
		each         = fs.Bool("each", false, "print every injection result")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dvmc-errors [flags]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(os.Stderr, `
exit codes: 0 every applied fault detected or masked, 1 usage or setup
error, 2 undetected faults or unrecoverable detections.
`)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // help was requested and printed
		}
		os.Exit(1) // usage error (ContinueOnError already printed it)
	}

	cfg := dvmc.ScaledConfig().WithSeed(*seed)
	cfg.Memory.CacheECC = true
	cfg.SNConfig.Interval = 10000
	cfg.SNConfig.Keep = 10
	cfg.Proc.MembarInjectionInterval = 5000
	model, err := dvmc.ParseModel(*modelName)
	if err != nil {
		fatalf("%v", err)
	}
	proto, err := dvmc.ParseProtocol(*protoName)
	if err != nil {
		fatalf("%v", err)
	}
	cfg = cfg.WithModel(model).WithProtocol(proto)

	w, err := dvmc.WorkloadByName(*workloadName)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("dvmc-errors: %d faults into %s on %v/%v (recovery window %d cycles)\n",
		*n, w.Name, cfg.Protocol, cfg.Model, cfg.SNConfig.Window())

	camp, err := dvmc.RunCampaign(cfg, w, *n, *budget)
	if err != nil {
		fatalf("campaign: %v", err)
	}
	if *each {
		for _, r := range camp.Results {
			fmt.Printf("  %v\n", r)
		}
	}
	applied, detected, masked, undetected := camp.Counts()
	fmt.Printf("\napplied:    %d\ndetected:   %d\nmasked:     %d (no architectural effect)\nundetected: %d (false negatives)\n",
		applied, detected, masked, undetected)
	fmt.Printf("max detection latency: %d cycles\nall recoverable: %v\n",
		camp.MaxLatency(), camp.AllRecoverable())
	if undetected > 0 || !camp.AllRecoverable() {
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvmc-errors: "+format+"\n", args...)
	os.Exit(1)
}
