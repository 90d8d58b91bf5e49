// Command dvmc-errors runs the Section 6.1 fault-injection campaign:
// random errors (bit flips; dropped, reordered, mis-routed, duplicated
// messages; LSQ and write-buffer faults; controller-logic faults) are
// injected into running systems and DVMC's detection is measured. The
// system is the Section 6.1 table's row for -protocol and -model
// (dvmc.ErrorDetectionConfig), and the injections run on a pool of one
// worker per CPU; the output is the same at any worker count.
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
	"io"
	"os"

	"dvmc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges passed in; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvmc-errors", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n            = fs.Int("n", 20, "number of faults to inject (at least 1)")
		workloadName = fs.String("workload", "oltp", "workload under test")
		modelName    = fs.String("model", "TSO", "consistency model: SC|TSO|PSO|RMO")
		protoName    = fs.String("protocol", "directory", "coherence protocol")
		budget       = fs.Uint64("budget", 400_000, "post-injection observation cycles")
		seed         = fs.Uint64("seed", 1, "campaign seed")
		each         = fs.Bool("each", false, "print every injection result")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dvmc-errors [flags]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
exit codes: 0 every applied fault detected or masked, 1 usage or setup
error, 2 undetected faults or unrecoverable detections.
`)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // help was requested and printed
		}
		return 1 // usage error (ContinueOnError already printed it)
	}
	failf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dvmc-errors: "+format+"\n", args...)
		return 1
	}
	if *n < 1 {
		return failf("-n %d: need at least one fault", *n)
	}

	cfg, err := config(*protoName, *modelName, *seed)
	if err != nil {
		return failf("%v", err)
	}
	w, err := dvmc.WorkloadByName(*workloadName)
	if err != nil {
		return failf("%v", err)
	}

	fmt.Fprintf(stdout, "dvmc-errors: %d faults into %s on %v/%v (recovery window %d cycles)\n",
		*n, w.Name, cfg.Protocol, cfg.Model, cfg.SNConfig.Window())

	camp, err := dvmc.RunCampaign(cfg, w, *n, *budget)
	if err != nil {
		return failf("campaign: %v", err)
	}
	if *each {
		for _, r := range camp.Results {
			fmt.Fprintf(stdout, "  %v\n", r)
		}
	}
	applied, detected, masked, undetected := camp.Counts()
	fmt.Fprintf(stdout, "\napplied:    %d\ndetected:   %d\nmasked:     %d (no architectural effect)\nundetected: %d (false negatives)\n",
		applied, detected, masked, undetected)
	fmt.Fprintf(stdout, "max detection latency: %d cycles\nall recoverable: %v\n",
		camp.MaxLatency(), camp.AllRecoverable())
	if undetected > 0 || !camp.AllRecoverable() {
		return 2
	}
	return 0
}

// config is the Section 6.1 row the -protocol and -model flags name.
func config(protoName, modelName string, seed uint64) (dvmc.Config, error) {
	model, err := dvmc.ParseModel(modelName)
	if err != nil {
		return dvmc.Config{}, err
	}
	proto, err := dvmc.ParseProtocol(protoName)
	if err != nil {
		return dvmc.Config{}, err
	}
	return dvmc.ErrorDetectionConfig(dvmc.ErrorDetectionRow{Protocol: proto, Model: model}, seed), nil
}
