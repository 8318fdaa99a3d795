package service

import "math"

// The sketch covers served-error magnitudes from 1 ns to 10 s with a
// relative accuracy of ±(gamma−1)/2 ≈ ±1% per bin. Everything below
// sketchMinS collapses into a dedicated near-zero bin and everything
// above sketchMaxS into the last bin; the exact observed min/max clamp
// reported quantiles so saturation never invents values outside the
// sample range.
const (
	sketchMinS  = 1e-9
	sketchMaxS  = 10.0
	sketchGamma = 1.02
)

// Sketch is a log-binned streaming quantile sketch for served-error
// samples. All bins are allocated up front so the hot path (AddN) never
// allocates. Merging is elementwise addition, exact on uint64 counts:
// the bins, count, min, max and every quantile of a merged sketch do
// not depend on merge order or grouping. The float sum (and so Mean)
// does; it is deterministic only because Collect merges in member
// order.
type Sketch struct {
	bins    []uint64
	zero    uint64 // samples below sketchMinS
	over    uint64 // samples at or above sketchMaxS
	count   uint64
	sum     float64
	minSeen float64
	maxSeen float64
}

// invLogGamma and numBins are fixed by the sketch constants; computed
// once so AddN is a multiply, not a log of gamma per sample batch.
var (
	invLogGamma = 1 / math.Log(sketchGamma)
	numBins     = int(math.Ceil(math.Log(sketchMaxS/sketchMinS)*invLogGamma)) + 1
)

// NewSketch returns an empty sketch with all bins preallocated.
func NewSketch() *Sketch {
	return &Sketch{bins: make([]uint64, numBins)}
}

// AddN records n samples of value v (seconds, non-negative). A batch of
// identical values is how the tick-aggregated generator feeds the
// sketch: every query served within one tick observes the same node
// error, so one AddN covers the whole batch without per-query work.
func (s *Sketch) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = -v
	}
	if s.count == 0 || v < s.minSeen {
		s.minSeen = v
	}
	if s.count == 0 || v > s.maxSeen {
		s.maxSeen = v
	}
	s.count += n
	s.sum += v * float64(n)
	if v < sketchMinS {
		s.zero += n
		return
	}
	if v >= sketchMaxS {
		s.over += n
		return
	}
	i := int(math.Log(v/sketchMinS) * invLogGamma)
	if i >= len(s.bins) {
		i = len(s.bins) - 1
	}
	s.bins[i] += n
}

// Mean returns the float sum of the recorded samples, accumulated in
// AddN and Merge order, over their count (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Max returns the exact largest recorded sample (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.maxSeen
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank over
// the cumulative bin counts, reporting the geometric midpoint of the
// selected bin clamped to the exact observed sample range. Empty sketches
// return 0; q outside [0,1] clamps to the extremes.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q*float64(s.count-1) + 0.5)
	// Ranks landing in the overflow bin (or past every bin) report the
	// exact observed maximum.
	v := s.maxSeen
	if rank < s.zero {
		v = 0
	} else {
		cum := s.zero
		for i, c := range s.bins {
			cum += c
			if rank < cum {
				v = sketchMinS * math.Pow(sketchGamma, float64(i)+0.5)
				break
			}
		}
	}
	if v < s.minSeen {
		v = s.minSeen
	}
	if v > s.maxSeen {
		v = s.maxSeen
	}
	return v
}

// Merge folds o into s. Bin layouts are identical by construction, so
// the merged bins, count, min and max equal those of one sketch built
// from the union of both sample streams, in any merge order. The sum is
// a float addition and only matches to rounding; callers that need it
// byte-stable merge in a fixed order.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if s.count == 0 || o.minSeen < s.minSeen {
		s.minSeen = o.minSeen
	}
	if s.count == 0 || o.maxSeen > s.maxSeen {
		s.maxSeen = o.maxSeen
	}
	s.zero += o.zero
	s.over += o.over
	s.count += o.count
	s.sum += o.sum
	for i, c := range o.bins {
		s.bins[i] += c
	}
}
