package main

// Example runs the quickstart. The simulation is deterministic per
// seed, so go test checks every figure it prints.
func Example() {
	main()
	// Output:
	// ntisim quickstart — 4 nodes, NTI hardware timestamping
	// measured delay bounds: [58.353µs, 59.366µs] from 16 probes
	// precision  max|Cp-Cq|: mean  1.672 µs   worst  1.907 µs
	// accuracy   max|Cp-t| : mean 14.596 µs   worst 22.531 µs
	// containment violations: 0 (accuracy intervals vs real time)
	// node 0: 75 rounds, 224 CSPs used, 75 amortizations, last correction 0.060µs
	// node 1: 75 rounds, 224 CSPs used, 75 amortizations, last correction 1.669µs
	// node 2: 75 rounds, 224 CSPs used, 75 amortizations, last correction -0.298µs
	// node 3: 74 rounds, 222 CSPs used, 74 amortizations, last correction -1.788µs
}
