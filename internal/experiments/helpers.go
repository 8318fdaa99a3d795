package experiments

import (
	"ntisim/internal/cluster"
	"ntisim/internal/metrics"
	"ntisim/internal/oscillator"
)

// idealOsc builds drift-free oscillators, for experiments that isolate
// data-path effects from clock drift.
func idealOsc(hz float64) func(int) oscillator.Config {
	return func(int) oscillator.Config { return oscillator.Ideal(hz) }
}

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
