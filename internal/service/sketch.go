package service

import (
	"math"

	"ntisim/internal/metrics"
	"ntisim/internal/telemetry"
)

// The sketch's bins cover 1 ns to 10 s at ratio gamma, ±1% per bin.
const (
	sketchMinS  = 1e-9
	sketchMaxS  = 10.0
	sketchGamma = 1.02
)

// Sketch is the served-error quantile sketch: a telemetry.Quantiles
// core over preallocated uint64 bins, so AddN never allocates.
// campaign-serving.jsonl and the benchmark digests pin its layout and
// rank rule. Bins, count, extremes and quantiles of a merged sketch do
// not depend on merge order; the float sum (and Mean) does, and is
// deterministic only because Collect merges in member order.
type Sketch struct {
	q    telemetry.Quantiles[uint64]
	bins []uint64
}

// Computed once, so AddN multiplies instead of taking a log of gamma.
var (
	invLogGamma = 1 / math.Log(sketchGamma)
	numBins     = int(math.Ceil(math.Log(sketchMaxS/sketchMinS)*invLogGamma)) + 1
)

// NewSketch returns an empty sketch with all bins preallocated.
func NewSketch() *Sketch {
	return &Sketch{bins: make([]uint64, numBins)}
}

// AddN records n samples of value v (seconds; a negative v counts as
// -v). A batch of identical values is how the tick-aggregated generator
// feeds the sketch: every query served within one tick observes the same
// node error, so one AddN covers the whole batch without per-query work.
func (s *Sketch) AddN(v float64, n uint64) {
	if v < 0 {
		v = -v
	}
	i := numBins // at or above sketchMaxS
	switch {
	case v < sketchMinS:
		i = -1
	case v < sketchMaxS:
		i = min(int(math.Log(v/sketchMinS)*invLogGamma), numBins-1)
	}
	s.q.Add(s.bins, i, v, n)
}

// sketchMid is bin i's geometric midpoint, reported for its quantiles.
func sketchMid(i int) float64 {
	return sketchMinS * math.Pow(sketchGamma, float64(i)+0.5)
}

// Mean returns the float sum of the recorded samples, accumulated in
// AddN and Merge order, over their count (0 when empty).
func (s *Sketch) Mean() float64 { return s.q.Mean() }

// Max returns the exact largest recorded sample (0 when empty).
func (s *Sketch) Max() float64 { return s.q.Max }

// Quantile returns the q-quantile at metrics.NearestRank, clamped to the
// observed range; 0 when empty, and q outside [0,1] clamps to the ends.
func (s *Sketch) Quantile(q float64) float64 {
	return s.q.At(s.bins, uint64(metrics.NearestRank(q, int(s.q.N))), sketchMid)
}

// Merge folds o into s: bins, count and extremes as for the union of
// both streams in any order; the float sum only to rounding.
func (s *Sketch) Merge(o *Sketch) {
	if o != nil {
		s.q.Merge(s.bins, &o.q, o.bins)
	}
}
