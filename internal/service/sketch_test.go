package service

import (
	"math"
	"sort"
	"testing"

	"ntisim/internal/sim"
)

func TestSketchEmpty(t *testing.T) {
	s := NewSketch()
	if s.q.N != 0 || s.Mean() != 0 || s.q.Min != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Errorf("empty sketch not all-zero: count=%d mean=%g q50=%g", s.q.N, s.Mean(), s.Quantile(0.5))
	}
}

func TestSketchQuantileRelativeError(t *testing.T) {
	rng := sim.NewRNG(42)
	s := NewSketch()
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over nearly the whole sketch range, the hardest
		// case for a fixed-width-bin histogram.
		v := 1e-8 * rng.Pareto(0.3, 1, 1e7)
		vals = append(vals, v)
		s.AddN(v, 1)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1)+0.5)]
		got := s.Quantile(q)
		rel := (got - exact) / exact
		if rel < 0 {
			rel = -rel
		}
		// gamma = 1.02 bins guarantee ~1% relative error on the bin
		// midpoint; allow 3% for rank-vs-midpoint interactions.
		if rel > 0.03 {
			t.Errorf("q=%g: sketch %g vs exact %g (rel err %.3f)", q, got, exact, rel)
		}
	}
	if s.Max() != vals[len(vals)-1] || s.q.Min != vals[0] {
		t.Errorf("min/max not exact: got [%g, %g] want [%g, %g]", s.q.Min, s.Max(), vals[0], vals[len(vals)-1])
	}
}

func TestSketchMergeEqualsUnion(t *testing.T) {
	rng := sim.NewRNG(7)
	a, b, union := NewSketch(), NewSketch(), NewSketch()
	for i := 0; i < 5000; i++ {
		v := rng.Exponential(1e-5)
		n := uint64(rng.Intn(5))
		if i%2 == 0 {
			a.AddN(v, n)
		} else {
			b.AddN(v, n)
		}
		union.AddN(v, n)
	}
	a.Merge(b)
	// Counts, min and max merge exactly; the sum is a float
	// accumulation whose order differs between the two builds, so it
	// only matches to rounding. (In the cluster, per-node sketches are
	// always merged in member order, so the reported mean is still
	// byte-deterministic.)
	if a.q.N != union.q.N || a.q.Min != union.q.Min || a.Max() != union.Max() {
		t.Fatalf("merge summary differs from union: count %d/%d", a.q.N, union.q.N)
	}
	if d := math.Abs(a.q.Sum - union.q.Sum); d > 1e-12*union.q.Sum {
		t.Fatalf("merged sum %g vs union %g", a.q.Sum, union.q.Sum)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if a.Quantile(q) != union.Quantile(q) {
			t.Errorf("q=%g: merged %g != union %g", q, a.Quantile(q), union.Quantile(q))
		}
	}
}

func TestSketchExtremesAndClamp(t *testing.T) {
	s := NewSketch()
	s.AddN(1e-12, 10) // below range: near-zero bin
	s.AddN(100, 1)    // above range: saturates last bin
	if s.Quantile(0.1) != 1e-12 {
		t.Errorf("sub-ns quantile = %g, want clamped to exact min 1e-12", s.Quantile(0.1))
	}
	if s.Quantile(1) != 100 {
		t.Errorf("saturated top quantile = %g, want clamped to exact max 100", s.Quantile(1))
	}
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("out-of-range q must clamp to the extremes")
	}
}

func TestSketchAddNAllocFree(t *testing.T) {
	s := NewSketch()
	rng := sim.NewRNG(3)
	allocs := testing.AllocsPerRun(1000, func() {
		s.AddN(rng.Exponential(1e-5), 17)
	})
	if allocs != 0 {
		t.Errorf("AddN allocates %.1f/op, want 0", allocs)
	}
}
