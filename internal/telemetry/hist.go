package telemetry

import "math"

// Histogram is the registry's log-binned histogram: a Quantiles core
// over math.Frexp octaves, each split into histSub equal-width sub-bins
// (worst-case relative quantile error 1/(2·histSub) ≈ 6%). Zero and
// negative values count below the bins. The telemetry goldens and the
// benchmark digests pin this layout and rank rule. Not thread-safe.
type Histogram struct {
	q    Quantiles[uint32]
	bins [histBins]uint32
}

const (
	histSub    = 8   // sub-bins per octave
	histMinExp = -40 // smallest tracked octave: [2^-41, 2^-40) ≈ 4.5e-13
	histMaxExp = 40  // largest tracked value: < 2^40 ≈ 1.1e12
	histBins   = (histMaxExp - histMinExp) * histSub
)

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.q.Add(h.bins[:], histIndex(v), v, 1)
}

// histIndex maps v to its bin, -1 for underflow (including zero and
// negatives) and >= histBins for overflow.
func histIndex(v float64) int {
	if v <= 0 {
		return -1
	}
	f, e := math.Frexp(v) // v = f·2^e with f ∈ [0.5, 1)
	if e <= histMinExp {
		return -1
	}
	if e > histMaxExp {
		return histBins
	}
	sub := min(int((f-0.5)*2*histSub), histSub-1)
	return (e-1-histMinExp)*histSub + sub
}

// binMid returns the midpoint of bin idx, the value reported for
// quantiles that land in it.
func binMid(idx int) float64 {
	e := idx/histSub + 1 + histMinExp
	sub := idx % histSub
	return math.Ldexp(0.5+(float64(sub)+0.5)/(2*histSub), e)
}

// merge folds o into h; a nil o is empty.
func (h *Histogram) merge(o *Histogram) {
	if o != nil {
		h.q.Merge(h.bins[:], &o.q, o.bins[:])
	}
}

// quantile returns the q-quantile (q ∈ [0,1]) at rank ⌊q·(n−1)⌋.
func (h *Histogram) quantile(q float64) float64 {
	rank := uint64(q * float64(h.q.N-1))
	if rank >= h.q.N {
		rank = h.q.N - 1
	}
	return h.q.At(h.bins[:], rank, binMid)
}

// stats summarizes the histogram for a snapshot.
func (h *Histogram) stats() HistValue {
	if h == nil || h.q.N == 0 {
		return HistValue{}
	}
	return HistValue{
		N:    h.q.N,
		Min:  h.q.Min,
		Mean: h.q.Mean(),
		P50:  h.quantile(0.50),
		P90:  h.quantile(0.90),
		P99:  h.quantile(0.99),
		Max:  h.q.Max,
	}
}
