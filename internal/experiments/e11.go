package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/metrics"
)

// E11WANOfLANs reproduces paper footnote 2: "our approach can also be
// adopted to more general topologies commonly known as WANs-of-LANs,
// provided that all gateway nodes are also equipped with the NTI". Two
// LAN segments are chained by gateway nodes whose single UTCSU serves
// a COMCO on each segment (two SSU pairs), so the segments' ensembles
// couple through their interval clocks. The gateways' second channel
// crosses a relayed WAN link (cluster.DefaultWANDelayS one way).
func E11WANOfLANs(seed uint64) Result {
	r := Result{
		ID:         "E11",
		Title:      "WANs-of-LANs: two segments chained by an NTI-equipped gateway",
		PaperClaim: "footnote 2: the approach extends to WANs-of-LANs when gateways carry NTIs; §3.3: six SSUs for redundant channels/gateway nodes",
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	cfg := cluster.Defaults(10, seed)
	cfg.Segments = 2
	// Each node only sees its segment's ~6 members; F must be sized to
	// that view, or the fault-tolerant midpoint discards the (single)
	// gateway reference and the segments decouple.
	cfg.Sync.F = 1
	// F+1 = 2 redundant gateways per link: an f-trimming convergence
	// function ignores a single bridge's reference entirely (it is
	// always the extremum from inside a segment), so coupling under
	// fault tolerance needs > f gateways — a reproduction finding that
	// sharpens footnote 2.
	c := cluster.New(cfg)
	// Calibrate delay bounds within segment 0 and share them (symmetric
	// segments).
	b := c.MeasureDelay(0, 1, 16)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(b)
	}
	c.Start(c.Now() + 1)
	c.RunUntil(c.Now() + 30)

	var global, seg0, seg1 metrics.Series
	start := c.Now()
	for t := start; t <= start+120; t += 1 {
		c.RunUntil(t)
		cs := c.Snapshot()
		global.Add(cs.Precision)
		seg0.Add(c.SegmentPrecision(0))
		seg1.Add(c.SegmentPrecision(1))
	}

	r.Table.Header = []string{"scope", "mean prec [µs]", "worst prec [µs]"}
	r.Table.AddRow("segment 0 (5 nodes)", metrics.Us(seg0.Mean()), metrics.Us(seg0.Max()))
	r.Table.AddRow("segment 1 (5 nodes)", metrics.Us(seg1.Mean()), metrics.Us(seg1.Max()))
	r.Table.AddRow("global (12 members, 2 hops)", metrics.Us(global.Mean()), metrics.Us(global.Max()))
	r.Numbers["seg0"] = seg0.Max()
	r.Numbers["seg1"] = seg1.Max()
	r.Numbers["global"] = global.Max()

	gw := c.Members[len(c.Members)-1]

	tx0, rx0 := gw.Node.NTI.ChannelStats(0)
	tx1, rx1 := gw.Node.NTI.ChannelStats(1)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"gateway hardware triggers: channel0 tx=%d rx=%d, channel1 tx=%d rx=%d (both SSU pairs active)",
		tx0, rx0, tx1, rx1))

	r.Claims["segments individually in low-µs range"] = seg0.Max() < 5e-6 && seg1.Max() < 5e-6
	r.Claims["global precision bounded across the gateway"] = global.Max() < 15e-6
	r.Claims["gateway stamps on both channels"] = tx0 > 0 && rx0 > 0 && tx1 > 0 && rx1 > 0
	return r
}
