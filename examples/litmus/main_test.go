package main

// Example runs the demo end to end and pins what it prints: every run
// is a pure function of its seeds.
func Example() {
	main()
	// Output:
	// Allowable Reordering litmus tests (paper Tables 1-4, Section 4.2)
	//   OK        = the model permits this perform order
	//   VIOLATION = the checker flags it
	//
	// trace                         SC         TSO         PSO         RMO
	// store-buffering        VIOLATION          OK          OK          OK    a younger load performs before an older store (write buffer)
	// load-reorder           VIOLATION   VIOLATION   VIOLATION          OK    two loads perform out of program order
	// store-reorder          VIOLATION   VIOLATION          OK          OK    two stores perform out of program order
	// stbar-protected        VIOLATION   VIOLATION   VIOLATION   VIOLATION    store, Stbar (#SS), store: the Stbar is overtaken by the younger store
	// rmw-ordering           VIOLATION   VIOLATION   VIOLATION          OK    an atomic's store half performs after a younger load
	// bits32-on-relaxed      VIOLATION   VIOLATION   VIOLATION   VIOLATION    32-bit (TSO-mode) loads reorder on a relaxed system (Table 8 rule)
	//
	// pairwise ordering requirements (Ordered(first, second)):
	// constraint                    SC         TSO         PSO         RMO
	// Load->Load                  true        true        true       false
	// Load->Store                 true        true        true       false
	// Store->Load                 true       false       false       false
	// Store->Store                true        true       false       false
}
