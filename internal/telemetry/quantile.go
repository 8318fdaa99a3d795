package telemetry

// Quantiles is the layout-free core of a log-binned streaming histogram:
// exact count, sum and extremes, the counts outside the bins, the
// elementwise merge and the cumulative-bin rank walk. Its owner
// (Histogram, service.Sketch) keeps the bins, passed to every call, maps
// values to bins and picks the rank of a quantile. The zero value is
// empty.
type Quantiles[C uint32 | uint64] struct {
	N        uint64  // samples recorded
	Sum      float64 // float sum, in Add and Merge order
	Min, Max float64 // exact extremes; 0 while empty
	Below    uint64  // samples below the first bin
	Above    uint64  // samples at or above the end of the last bin
}

// Add records n samples of v in bin i of bins; i < 0 counts them below
// the binned range and i >= len(bins) above it.
func (q *Quantiles[C]) Add(bins []C, i int, v float64, n uint64) {
	if n == 0 {
		return
	}
	if q.N == 0 || v < q.Min {
		q.Min = v
	}
	if q.N == 0 || v > q.Max {
		q.Max = v
	}
	q.N += n
	q.Sum += v * float64(n)
	switch {
	case i < 0:
		q.Below += n
	case i >= len(bins):
		q.Above += n
	default:
		bins[i] += C(n)
	}
}

// Merge folds o and its bins src into q and dst (same layout). Counts
// and extremes are exact in any order; the float sum is not.
func (q *Quantiles[C]) Merge(dst []C, o *Quantiles[C], src []C) {
	if o.N == 0 {
		return
	}
	if q.N == 0 || o.Min < q.Min {
		q.Min = o.Min
	}
	if q.N == 0 || o.Max > q.Max {
		q.Max = o.Max
	}
	q.N += o.N
	q.Sum += o.Sum
	q.Below += o.Below
	q.Above += o.Above
	for i, c := range src {
		dst[i] += c
	}
}

// Mean returns Sum/N, or 0 when empty.
func (q *Quantiles[C]) Mean() float64 {
	if q.N == 0 {
		return 0
	}
	return q.Sum / float64(q.N)
}

// At reports the rank-th smallest sample (0-based): mid(i) of its bin i,
// Min below the bins, Max above them, clamped to [Min, Max]; 0 if empty.
func (q *Quantiles[C]) At(bins []C, rank uint64, mid func(i int) float64) float64 {
	if q.N == 0 {
		return 0
	}
	v := q.Max
	if rank < q.Below {
		v = q.Min
	} else {
		cum := q.Below
		for i, c := range bins {
			cum += uint64(c)
			if rank < cum {
				v = mid(i)
				break
			}
		}
	}
	if v < q.Min {
		v = q.Min
	}
	if v > q.Max {
		v = q.Max
	}
	return v
}
