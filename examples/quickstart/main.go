// Quickstart: build a four-node LAN where every node carries an NTI
// (UTCSU + memory + CPLD) next to its Ethernet coprocessor, run
// interval-based clock synchronization, and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/metrics"
)

func main() {
	c := cluster.New(cluster.Defaults(4, 2024))

	// Round-trip-calibrate the delay bounds first, then start the
	// synchronizers half a second later.
	db := c.MeasureDelay(0, 1, 16)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(db)
	}
	c.Start(c.Now() + 0.5)

	// 15 s of simulated warm-up (initial step + convergence), then a
	// 60 s measurement window sampled once per second.
	c.RunUntil(c.Now() + 15)
	from := c.Now()
	var precision, accuracy metrics.Series
	violations := 0
	for t := from; t <= from+60; t++ {
		c.RunUntil(t)
		cs := c.Snapshot()
		precision.Add(cs.Precision)
		accuracy.Add(cs.MaxAbsOffset)
		if !cs.Contained {
			violations++
		}
	}

	fmt.Println("ntisim quickstart — 4 nodes, NTI hardware timestamping")
	fmt.Printf("measured delay bounds: [%v, %v] from %d probes\n", db.Min, db.Max, db.Samples)
	fmt.Printf("precision  max|Cp-Cq|: mean %6.3f µs   worst %6.3f µs\n",
		precision.Mean()*1e6, precision.Max()*1e6)
	fmt.Printf("accuracy   max|Cp-t| : mean %6.3f µs   worst %6.3f µs\n",
		accuracy.Mean()*1e6, accuracy.Max()*1e6)
	fmt.Printf("containment violations: %d (accuracy intervals vs real time)\n", violations)
	for i, m := range c.Members {
		st := m.Sync.Stats()
		fmt.Printf("node %d: %d rounds, %d CSPs used, %d amortizations, last correction %v\n",
			i, st.Rounds, st.CSPsUsed, st.Amortizations, st.LastCorrection)
	}
}
