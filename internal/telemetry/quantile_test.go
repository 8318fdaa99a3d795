package telemetry

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestQuantilesAtMatchesSort checks the rank walk against sorting: on
// random weighted streams over the Histogram layout, At(rank) must be
// the reported value of the bin holding the rank-th smallest sample —
// Min below the bins, Max above them — clamped to [Min, Max], at every
// rank. Streams mix zero, negatives, values below and above the binned
// range and single-sample runs.
func TestQuantilesAtMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1998))
	for trial := range 300 {
		var q Quantiles[uint32]
		var bins [histBins]uint32
		var sorted []float64
		for range 1 + rng.IntN(40) {
			// Octaves 2^-50 … 2^49 straddle both ends of the binned range.
			v := math.Ldexp(1+rng.Float64(), rng.IntN(100)-50)
			switch rng.IntN(8) {
			case 0:
				v = 0
			case 1:
				v = -v
			}
			n := uint64(1 + rng.IntN(3))
			q.Add(bins[:], histIndex(v), v, n)
			for range n {
				sorted = append(sorted, v)
			}
		}
		slices.Sort(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		if q.N != uint64(len(sorted)) || q.Min != lo || q.Max != hi {
			t.Fatalf("trial %d: n/min/max = %d/%g/%g, want %d/%g/%g", trial, q.N, q.Min, q.Max, len(sorted), lo, hi)
		}
		for rank, v := range sorted {
			want := hi
			switch i := histIndex(v); {
			case i < 0:
				want = lo
			case i < histBins:
				want = min(max(binMid(i), lo), hi)
			}
			if got := q.At(bins[:], uint64(rank), binMid); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: rank %d of %v: got %g, want %g", trial, rank, sorted, got, want)
			}
		}
	}
}
