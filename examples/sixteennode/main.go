// Sixteen-node prototype — the system the paper announces in §4: "a 16
// node prototype distributed system consisting of four MVME-162 with
// four NTIs each, which is currently under development".
//
// Sixteen nodes with TCXO-grade oscillators on one 10 Mb/s LAN, with
// round-trip-measured delay bounds, rate synchronization and one GPS
// anchor, printing the convergence trajectory.
//
//	go run ./examples/sixteennode
package main

import (
	"fmt"
	"os"

	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/metrics"
)

func main() {
	cfg := cluster.Defaults(16, 404)
	cfg.Sync.RateSync = true
	cfg.GPS = map[int]gps.Config{0: gps.DefaultReceiver()}
	c := cluster.New(cfg)

	b := c.MeasureDelay(0, 1, 16)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(b)
	}
	fmt.Printf("16-node prototype; measured delay bounds [%v, %v]\n\n", b.Min, b.Max)
	c.Start(c.Now() + 1)

	tb := metrics.Table{Header: []string{"t [s]", "precision [µs]", "worst |C-t| [µs]", "mean interval ±[µs]", "contained"}}
	begin := c.Now()
	var steady metrics.Series
	for t := begin + 10; t <= begin+180; t += 10 {
		c.RunUntil(t)
		cs := c.Snapshot()
		var width metrics.Series
		for _, m := range c.Members {
			am, ap := m.U.Alpha()
			width.Add((am.Duration().Seconds() + ap.Duration().Seconds()) / 2)
		}
		tb.AddRow(fmt.Sprintf("%.0f", t-begin), metrics.Us(cs.Precision), metrics.Us(cs.MaxAbsOffset),
			metrics.Us(width.Mean()), fmt.Sprint(cs.Contained))
		if t > begin+60 {
			steady.Add(cs.Precision)
		}
	}
	tb.Fprint(os.Stdout)
	fmt.Printf("\nsteady-state worst precision: %.3f µs (paper's goal: 1 µs range)\n", steady.Max()*1e6)
	st := c.Members[0].Sync.Stats()
	fmt.Printf("GPS node: %d external intervals accepted, %d rejected\n",
		st.ExternalAccepted, st.ExternalRejected)
}
