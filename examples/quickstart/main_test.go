package main

// Example runs the demo end to end and pins what it prints: every run
// is a pure function of its seeds.
func Example() {
	main()
	// Output:
	// ran 200 transactions in 49357 cycles on 8 TSO cores (directory protocol)
	// memory system: 3675 L1 misses, 3930 L2 misses, 0 dirty writebacks
	// verification:  5113 operations replayed through the verification stage
	//                463 Inform-Epoch messages checked by the memory epoch tables
	//                5 SafetyNet checkpoints taken (recovery window 40000 cycles)
	// violations:    0 (a fault-free run must report zero)
}
