package telemetry

import "math"

// Histogram is a log-binned streaming histogram in the spirit of the
// internal/service quantile sketch, rebuilt on math.Frexp so telemetry
// stays stdlib-only (service imports sim, sim imports telemetry — reusing
// service.Sketch would cycle). Each octave [2^(e-1), 2^e) is split into
// histSub equal-width sub-bins, giving a worst-case relative quantile
// error of 1/(2·histSub) ≈ 6% — coarse but cheap, and exact min/max/sum
// are carried alongside. Only non-negative observations are expected;
// negative values clamp into the underflow bin. Not thread-safe.
type Histogram struct {
	n        uint64
	sum      float64
	min, max float64
	zero     uint64 // observations below the smallest representable bin
	over     uint64 // observations at or above 2^histMaxExp
	bins     [histBins]uint32
}

const (
	histSub    = 8   // sub-bins per octave
	histMinExp = -40 // smallest tracked octave: [2^-41, 2^-40) ≈ 4.5e-13
	histMaxExp = 40  // largest tracked value: < 2^40 ≈ 1.1e12
	histBins   = (histMaxExp - histMinExp) * histSub
)

func newHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	idx := histIndex(v)
	switch {
	case idx < 0:
		h.zero++
	case idx >= histBins:
		h.over++
	default:
		h.bins[idx]++
	}
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
	sub := int((f - 0.5) * 2 * histSub)
	if sub >= histSub {
		sub = histSub - 1
	}
	return (e-1-histMinExp)*histSub + sub
}

// binMid returns the midpoint of bin idx, the value reported for
// quantiles that land in it.
func binMid(idx int) float64 {
	e := idx/histSub + 1 + histMinExp
	sub := idx % histSub
	return math.Ldexp(0.5+(float64(sub)+0.5)/(2*histSub), e)
}

// merge folds o into h elementwise; exact because bins are aligned.
func (h *Histogram) merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	h.n += o.n
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.zero += o.zero
	h.over += o.over
	for i, c := range o.bins {
		h.bins[i] += c
	}
}

// quantile returns the q-quantile (q ∈ [0,1]) as a bin midpoint clamped to
// the exact observed [min, max].
func (h *Histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	if rank >= h.n {
		rank = h.n - 1
	}
	v := h.max
	switch cum := h.zero; {
	case rank < cum:
		v = h.min
	default:
		v = h.max // falls through to overflow if bins never cover rank
		for i := range h.bins {
			cum += uint64(h.bins[i])
			if rank < cum {
				v = binMid(i)
				break
			}
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// stats summarizes the histogram for a snapshot.
func (h *Histogram) stats() HistValue {
	if h == nil || h.n == 0 {
		return HistValue{}
	}
	return HistValue{
		N:    h.n,
		Min:  h.min,
		Mean: h.sum / float64(h.n),
		P50:  h.quantile(0.50),
		P90:  h.quantile(0.90),
		P99:  h.quantile(0.99),
		Max:  h.max,
	}
}
