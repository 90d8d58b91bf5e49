package main

// Example runs the demo end to end and pins what it prints: every run
// is a pure function of its seeds.
func Example() {
	main()
	// Output:
	// == link bandwidth sweep: is DVMC's inform traffic a bottleneck? ==
	// GB/s            base cycles      DVMC cycles     overhead
	// 1.0                   51010            54042         5.9%
	// 1.5                   36798            45835        24.6%
	// 2.0                   30528            35100        15.0%
	// 2.5                   27131            29246         7.8%
	// 3.0                   23772            27613        16.2%
	//
	// == verification cache sweep: how small can the VC be? ==
	// VC words             cycles      VC stalls  replay misses
	// 4                     30771          34074              5
	// 8                     30146           6725              3
	// 16                    29246              0              1
	// 32                    29246              0              1
	// 64                    29246              0              1
	// 128                   29246              0              1
	//
	// == checkpoint interval sweep: recovery window vs logging traffic ==
	// interval           window       log msgs           cycles
	// 5000                20000            985            30791
	// 10000               40000            918            29246
	// 25000              100000            888            30199
	// 50000              200000            868            29941
}
