package main

// Example runs the demo end to end and pins what it prints: every run
// is a pure function of its seeds.
func Example() {
	main()
	// Output:
	// injected: wb-reorder into node 5 at cycle 9000
	// detected: allowable-reordering-violation, 1948 cycles after the fault took effect
	// recoverable: true (a checkpoint predating the error was still live)
	//
	// simulating a detected error at cycle 160433; rolling back...
	// post-recovery: 80 more transactions completed, 0 violations
	//
	// end-to-end: fault -> detection -> rollback -> clean completion
}
