package experiments

import (
	"ntisim/internal/cluster"
	"ntisim/internal/metrics"
)

// granularityImpairment returns the 4G+10u worst-case precision cost of
// the orthogonal accuracy convergence function [Sch97b] (§5) for a clock
// with reading granularity gS and rate-adjustment uncertainty uS; u =
// 1/fosc for the UTCSU's adder-based clock.
func granularityImpairment(gS, uS float64) float64 { return 4*gS + 10*uS }

// precisionWindow runs a started cluster from warmup to warmup+span,
// sampling every `every`, and returns precision and accuracy series.
func precisionWindow(c *cluster.Cluster, warmup, span, every float64) (prec, acc metrics.Series, violations int) {
	c.RunUntil(warmup)
	for _, cs := range c.RunSampled(warmup, warmup+span, every) {
		prec.Add(cs.Precision)
		acc.Add(cs.MaxAbsOffset)
		if !cs.Contained {
			violations++
		}
	}
	return prec, acc, violations
}

// applyMeasuredDelays runs a delay campaign and loads the bounds into
// every member.
func applyMeasuredDelays(c *cluster.Cluster) {
	b := c.MeasureDelay(0, 1, 16)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(b)
	}
}
