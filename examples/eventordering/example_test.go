package main

// Example runs the event-ordering demonstration. The simulation is
// deterministic per seed, so go test checks every count it prints.
func Example() {
	main()
	// Output:
	// distributed event ordering with APU hardware timestamps
	// cluster precision right now: 1.252 µs
	//
	// true δ        ordered correctly  certain (intervals disjoint)
	// ------------  -----------------  ----------------------------
	//    100.0 µs   50/50              50/50
	//     20.0 µs   50/50              50/50
	//      5.0 µs   50/50              0/50
	//      2.0 µs   50/50              0/50
	//      1.0 µs   34/50              0/50
	//      0.5 µs   6/50               0/50
	//
	// events further apart than the cluster precision order correctly;
	// the accuracy intervals additionally tell the application WHEN the
	// ordering is provable rather than merely probable (paper §2).
}
