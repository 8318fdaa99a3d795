package service

import (
	"math"
	"slices"
	"testing"
)

// sketchSample is one decoded AddN call.
type sketchSample struct {
	sketch int
	v      float64
	n      uint64
}

// sampleSize is the size of one encoded sample: a byte picking the
// sketch (low 3 bits) and the weight (high 3 bits, 0..7), a byte picking
// the decade or exact zero (low 7 bits) and the sign (top bit), and a
// 16-bit mantissa. Decades run from 1e-14 to 1e11, so samples land in
// the near-zero bin, across the binned range and in the overflow bin.
const (
	sampleSize       = 4
	maxSketchSamples = 512
	maxMergeSketches = 8
)

// decodeSketchInput reads a merge scenario from data: data[0] picks the
// number of sketches k (1..8), data[1:9] a permutation of them (as a
// Lehmer code) and data[9] a partition of the permuted sequence (bit i
// set: a group ends after position i). The rest is samples.
func decodeSketchInput(data []byte) (k int, perm []int, cuts uint8, samples []sketchSample) {
	if len(data) < 10 {
		return 0, nil, 0, nil
	}
	k = 1 + int(data[0])%maxMergeSketches
	code := uint64(0)
	for _, b := range data[1:9] {
		code = code<<8 | uint64(b)
	}
	perm = make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	for i := k - 1; i > 0; i-- {
		j := int(code % uint64(i+1))
		code /= uint64(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cuts = data[9]
	rest := data[10:]
	for i := 0; i+sampleSize <= len(rest) && i/sampleSize < maxSketchSamples; i += sampleSize {
		c := rest[i : i+sampleSize]
		smp := sketchSample{sketch: int(c[0]&7) % k, n: uint64(c[0] >> 5)}
		mant := 1 + 9*float64(uint16(c[2])<<8|uint16(c[3]))/65536
		if dec := int(c[1]&0x7F) % 27; dec < 26 {
			smp.v = mant * math.Pow(10, float64(dec-14))
			if c[1]&0x80 != 0 {
				smp.v = -smp.v
			}
		}
		samples = append(samples, smp)
	}
	return k, perm, cuts, samples
}

// requireExactEqual fails unless a and b agree bit for bit on every part
// of a sketch that merging keeps exact. The sum is left out on purpose:
// float addition depends on merge order.
func requireExactEqual(t *testing.T, what string, a, b *Sketch) {
	t.Helper()
	if !slices.Equal(a.bins, b.bins) || a.zero != b.zero || a.over != b.over || a.count != b.count {
		t.Fatalf("%s: counts differ: count %d/%d zero %d/%d over %d/%d", what,
			a.count, b.count, a.zero, b.zero, a.over, b.over)
	}
	if math.Float64bits(a.Min()) != math.Float64bits(b.Min()) || math.Float64bits(a.Max()) != math.Float64bits(b.Max()) {
		t.Fatalf("%s: extremes differ: [%g, %g] vs [%g, %g]", what, a.Min(), a.Max(), b.Min(), b.Max())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if x, y := a.Quantile(q), b.Quantile(q); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: q=%g: %g vs %g", what, q, x, y)
		}
	}
}

// FuzzSketchMerge checks the merge-order claim of Sketch: merging k
// sketches in index order, in a permuted order, and group by group over
// a partition of that permutation all give the bins, count, min, max and
// quantiles of one sketch fed every sample directly.
func FuzzSketchMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		k, perm, cuts, samples := decodeSketchInput(data)
		if k == 0 {
			return
		}
		parts := make([]*Sketch, k)
		for i := range parts {
			parts[i] = NewSketch()
		}
		direct := NewSketch()
		for _, smp := range samples {
			parts[smp.sketch].AddN(smp.v, smp.n)
			direct.AddN(smp.v, smp.n)
		}

		inOrder := NewSketch()
		for _, p := range parts {
			inOrder.Merge(p)
		}
		requireExactEqual(t, "index order", inOrder, direct)

		permuted := NewSketch()
		for _, i := range perm {
			permuted.Merge(parts[i])
		}
		requireExactEqual(t, "permuted order", permuted, direct)

		// Merge each group of the partition into its own sketch, then
		// fold the groups together last to first.
		var groups []*Sketch
		g := NewSketch()
		for pos, i := range perm {
			g.Merge(parts[i])
			if cuts&(1<<pos) != 0 || pos == len(perm)-1 {
				groups = append(groups, g)
				g = NewSketch()
			}
		}
		grouped := NewSketch()
		for i := len(groups) - 1; i >= 0; i-- {
			grouped.Merge(groups[i])
		}
		requireExactEqual(t, "grouped", grouped, direct)
	})
}
