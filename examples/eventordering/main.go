// Event ordering — what µs-synchronized clocks are *for* (paper §1:
// "temporally ordered events are in fact beneficial for a wide variety
// of tasks, ranging from relating sensor data gathered at different
// nodes up to fully-fledged distributed algorithms").
//
// Four nodes synchronize over the LAN; physical events then occur in
// pairs at two different nodes, separated by a true interval δ. Each
// node timestamps its event with one of the UTCSU's nine APU inputs
// (hardware time/accuracy-stamping of application events, §3.3) and the
// stamps are compared. With ~2 µs precision, orderings down to a few µs
// resolve correctly — something a software-timestamped or NTP-grade
// system cannot do.
//
//	go run ./examples/eventordering
package main

import (
	"fmt"
	"os"

	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/metrics"
	"ntisim/internal/timefmt"
)

func main() {
	cfg := cluster.Defaults(4, 616)
	// One GPS anchor + rate synchronization: without UTC anchoring the
	// accuracy intervals must honestly stay wide (they cover the
	// ensemble's unbounded drift versus real time), and orderings would
	// be correct but never *provable*.
	cfg.GPS = map[int]gps.Config{0: gps.DefaultReceiver()}
	cfg.Sync.RateSync = true
	c := cluster.New(cfg)
	c.MeasureDelay(0, 1, 16)
	c.Start(c.Now() + 1)
	c.RunUntil(c.Now() + 40) // converge (incl. rate sync) first

	fmt.Println("distributed event ordering with APU hardware timestamps")
	fmt.Printf("cluster precision right now: %.3f µs\n\n", c.Snapshot().Precision*1e6)

	type outcome struct {
		total, correct, resolvable int
	}
	results := map[float64]*outcome{}
	deltas := []float64{100e-6, 20e-6, 5e-6, 2e-6, 1e-6, 0.5e-6}
	// Event A at node 1, event B at node 3; the experiment schedules its
	// events on their simulator.
	a, bNode := c.Members[1], c.Members[3]
	s := a.Node.Sim
	rng := s.RNG("events")

	trial := func(delta float64, done func(ok, resolvable bool)) {
		// True separation delta.
		var stampA, stampB timefmt.Stamp
		var apA, amB timefmt.Alpha
		s.After(0, func() {
			stampA, _ = a.U.APU(0).Trigger(true)
			_, _, apA, _ = a.U.APU(0).Read()
		})
		s.After(delta, func() {
			stampB, _ = bNode.U.APU(0).Trigger(true)
			_, amB, _, _ = bNode.U.APU(0).Read()
			ok := stampB > stampA // B truly happened after A
			// The interval-based answer: the ordering is *certain* when
			// the stamped accuracy intervals do not overlap.
			hiA := stampA.Add(apA.Duration())
			loB := stampB.Add(-amB.Duration())
			resolvable := loB > hiA
			done(ok, resolvable)
		})
	}

	for _, d := range deltas {
		res := &outcome{}
		results[d] = res
		for k := 0; k < 50; k++ {
			at := c.Now() + 0.1 + rng.Float64()*0.3
			s.At(at, func() {
				trial(d, func(ok, resolvable bool) {
					res.total++
					if ok {
						res.correct++
					}
					if resolvable {
						res.resolvable++
					}
				})
			})
			c.RunUntil(at + 0.05)
		}
	}

	tb := metrics.Table{Header: []string{"true δ", "ordered correctly", "certain (intervals disjoint)"}}
	for _, d := range deltas {
		res := results[d]
		tb.AddRow(fmt.Sprintf("%8.1f µs", d*1e6),
			fmt.Sprintf("%d/%d", res.correct, res.total),
			fmt.Sprintf("%d/%d", res.resolvable, res.total))
	}
	tb.Fprint(os.Stdout)
	fmt.Println()
	fmt.Println("events further apart than the cluster precision order correctly;")
	fmt.Println("the accuracy intervals additionally tell the application WHEN the")
	fmt.Println("ordering is provable rather than merely probable (paper §2).")
}
