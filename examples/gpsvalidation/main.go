// GPS validation walkthrough — interval-based clock validation [Sch94]
// in action (paper §2 and §5): three GPS receivers feed an 8-node
// cluster; one receiver develops a wrong-second fault mid-run, the kind
// the authors' own two-month receiver study [HS97] observed. Clock
// validation notices that the faulty external interval is inconsistent
// with the internally derived validation interval and falls back, so
// the ensemble stays on UTC. A second run with naive trust shows the
// counterfactual.
//
//	go run ./examples/gpsvalidation
package main

import (
	"fmt"
	"os"

	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/metrics"
)

func run(trust bool) {
	policy := "interval-based clock validation"
	if trust {
		policy = "NAIVE TRUST (validation bypassed)"
	}
	fmt.Printf("--- policy: %s ---\n", policy)

	cfg := cluster.Defaults(8, 77)
	cfg.Sync.TrustExternal = trust
	healthy := gps.DefaultReceiver()
	faulty := gps.DefaultReceiver()
	// Off-by-one-second labels from t=60 on: the receiver's pps is fine
	// but its serial time-of-day message is wrong.
	faulty.Faults = []gps.Fault{{Kind: gps.FaultWrongSec, Start: 60, Magnitude: 1}}
	cfg.GPS = map[int]gps.Config{0: healthy, 1: healthy, 2: faulty}

	c := cluster.New(cfg)
	b := c.MeasureDelay(0, 1, 16)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(b)
	}
	c.Start(c.Now() + 1)

	tb := metrics.Table{Header: []string{"t [s]", "worst |C-t|", "precision [µs]", "node2 rejected"}}
	begin := c.Now()
	for t := begin + 20; t <= begin+160; t += 20 {
		c.RunUntil(t)
		cs := c.Snapshot()
		st := c.Members[2].Sync.Stats()
		acc := fmt.Sprintf("%8.3f µs", cs.MaxAbsOffset*1e6)
		if cs.MaxAbsOffset > 1e-3 {
			acc = fmt.Sprintf("%8.3f ms (!)", cs.MaxAbsOffset*1e3)
		}
		tb.AddRow(fmt.Sprintf("%.0f", t-begin), acc, metrics.Us(cs.Precision), fmt.Sprint(st.ExternalRejected))
	}
	tb.Fprint(os.Stdout)
	fmt.Println()
}

func main() {
	fmt.Println("fault: GPS receiver on node 2 labels its pulses one second off from t=60")
	fmt.Println()
	run(false)
	run(true)
	fmt.Println("with validation the faulty receiver is simply outvoted by reality;")
	fmt.Println("with naive trust node 2 drags itself a full second away from UTC.")
}
