// Two-node ε measurement — the experiment of paper §4: "some
// preliminary experiments with a two-node system revealed a
// transmission/reception time uncertainty ε well below 1 µs".
//
// Two nodes with ideal (drift-free) oscillators exchange CSPs; the
// spread of (hardware receive stamp − hardware transmit stamp) is ε,
// the quantity that lower-bounds any achievable precision [LL84].
//
//	go run ./examples/twonode
package main

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/csp"
	"ntisim/internal/kernel"
	"ntisim/internal/metrics"
	"ntisim/internal/network"
	"ntisim/internal/oscillator"
)

func main() {
	cfg := cluster.Defaults(2, 1998)
	// Ideal oscillators isolate the data path: any spread in the stamp
	// gap is transmission/reception uncertainty, not clock drift.
	cfg.OscillatorFor = func(int) oscillator.Config { return oscillator.Ideal(cfg.OscHz) }
	c := cluster.New(cfg)

	var gaps metrics.Series
	c.Members[1].Node.OnCSP(func(ar kernel.Arrival) {
		tx, ok := ar.Pkt.TxStamp()
		if ok && ar.StampOK {
			gaps.Add(ar.RxStamp.Sub(tx).Seconds())
		}
	})

	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		c.Members[0].Node.Sim.After(0.01+float64(i)*0.002, func() {
			c.Members[0].Node.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: uint32(i)}, network.Broadcast)
		})
	}
	c.RunUntil(0.01*float64(n)*0.2 + 5)

	fmt.Println("two-node ε measurement (paper §4)")
	fmt.Printf("CSPs stamped:       %d\n", gaps.N())
	fmt.Printf("gap min/mean/max:   %.3f / %.3f / %.3f µs\n",
		gaps.Min()*1e6, gaps.Mean()*1e6, gaps.Max()*1e6)
	fmt.Printf("ε = max-min spread: %.3f µs\n", gaps.Range()*1e6)
	if gaps.Range() < 1e-6 {
		fmt.Println("-> ε well below 1 µs, as §4 reports for the MVME-162 prototype")
	} else {
		fmt.Println("-> ε exceeds 1 µs: the §4 claim did NOT reproduce")
	}
	fmt.Println()
	fmt.Println("where the remaining ε comes from (paper §3.1): the COMCO's")
	fmt.Println("bus-arbitration jitter on both sides, the ±1/fosc input")
	fmt.Println("synchronizer of the UTCSU, and the 2^-24 s stamp granularity.")
}
