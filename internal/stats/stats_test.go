package stats

import (
	"math"
	"testing"

	"ntisim/internal/harness"
	"ntisim/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescribeBasics(t *testing.T) {
	// Mean 3, sample stddev sqrt(2.5) for {1..5}.
	e := Describe([]float64{3, 1, 4, 5, 2}, 0, nil)
	if e.N != 5 || e.Mean != 3 || e.Min != 1 || e.Max != 5 || e.Median != 3 {
		t.Fatalf("estimate = %+v", e)
	}
	if !almost(e.Stddev, math.Sqrt(2.5), 1e-12) {
		t.Errorf("stddev = %g, want sqrt(2.5)", e.Stddev)
	}
	// t(4 df, 95%) = 2.776: half-width 2.776·s/√5.
	half := 2.776 * e.Stddev / math.Sqrt(5)
	if !almost(e.Lo, 3-half, 1e-9) || !almost(e.Hi, 3+half, 1e-9) {
		t.Errorf("CI = [%g, %g], want 3 ± %g", e.Lo, e.Hi, half)
	}
	// Bootstrap disabled: interval collapses to the mean.
	if e.BootLo != e.Mean || e.BootHi != e.Mean {
		t.Errorf("disabled bootstrap = [%g, %g]", e.BootLo, e.BootHi)
	}
}

// N = 1 must degenerate gracefully: the sample everywhere, zero
// dispersion, collapsed intervals — never NaN.
func TestDescribeSingleSample(t *testing.T) {
	e := Describe([]float64{7e-6}, 1000, sim.NewRNG(1))
	if e.N != 1 || e.Mean != 7e-6 || e.Median != 7e-6 || e.Min != 7e-6 || e.Max != 7e-6 {
		t.Fatalf("estimate = %+v", e)
	}
	if e.Stddev != 0 || e.Lo != 7e-6 || e.Hi != 7e-6 || e.BootLo != 7e-6 || e.BootHi != 7e-6 {
		t.Errorf("single sample must collapse all intervals: %+v", e)
	}
}

func TestDescribeEmpty(t *testing.T) {
	e := Describe(nil, 1000, sim.NewRNG(1))
	if e.N != 0 || e.Mean != 0 || e.Stddev != 0 || e.Lo != 0 || e.Hi != 0 || e.BootLo != 0 || e.BootHi != 0 {
		t.Errorf("empty estimate = %+v", e)
	}
}

// The bootstrap interval must be deterministic for a fixed RNG seed,
// contain the sample mean, and sit inside the sample range.
func TestBootstrapDeterministicAndSane(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := Describe(vals, 1000, sim.NewRNG(42))
	b := Describe(vals, 1000, sim.NewRNG(42))
	if a.BootLo != b.BootLo || a.BootHi != b.BootHi {
		t.Fatalf("bootstrap not deterministic: [%g,%g] vs [%g,%g]", a.BootLo, a.BootHi, b.BootLo, b.BootHi)
	}
	if a.BootLo > a.Mean || a.BootHi < a.Mean {
		t.Errorf("bootstrap interval [%g, %g] excludes the mean %g", a.BootLo, a.BootHi, a.Mean)
	}
	if a.BootLo < a.Min || a.BootHi > a.Max {
		t.Errorf("bootstrap interval [%g, %g] outside sample range", a.BootLo, a.BootHi)
	}
	c := Describe(vals, 1000, sim.NewRNG(43))
	if c.BootLo == a.BootLo && c.BootHi == a.BootHi {
		t.Error("different RNG seeds produced identical bootstrap intervals (suspicious)")
	}
}

func TestTCrit95(t *testing.T) {
	cases := []struct{ df, want, tol float64 }{
		{1, 12.706, 0}, {2, 4.303, 0}, {4, 2.776, 0}, {30, 2.042, 0},
		{0.5, 12.706, 0}, // clamped below 1
		{1.5, (12.706 + 4.303) / 2, 1e-9},
		{40, 2.021, 0.002}, {60, 2.000, 0.002}, {120, 1.980, 0.002}, {1e9, 1.960, 0.001},
	}
	for _, c := range cases {
		if got := TCrit95(c.df); !almost(got, c.want, c.tol) {
			t.Errorf("TCrit95(%g) = %g, want %g ± %g", c.df, got, c.want, c.tol)
		}
	}
	// Monotone decreasing over a df sweep.
	prev := math.Inf(1)
	for df := 1.0; df < 200; df += 0.25 {
		got := TCrit95(df)
		if got > prev+1e-12 {
			t.Fatalf("TCrit95 not monotone at df=%g: %g > %g", df, got, prev)
		}
		prev = got
	}
}

func TestCompareDistinguishesSeparatedSamples(t *testing.T) {
	a := Describe([]float64{1.0, 1.1, 0.9, 1.05, 0.95}, 0, nil)
	b := Describe([]float64{2.0, 2.1, 1.9, 2.05, 1.95}, 0, nil)
	c := Compare(a, b)
	if !c.Distinguishable {
		t.Fatalf("clearly separated samples not distinguishable: %+v", c)
	}
	if c.DeltaMean >= 0 {
		t.Errorf("delta = %g, want negative", c.DeltaMean)
	}
	if c.T >= 0 || math.Abs(c.T) <= c.Critical {
		t.Errorf("t = %g vs critical %g", c.T, c.Critical)
	}

	// Same distribution: indistinguishable.
	d := Compare(a, a)
	if d.Distinguishable || d.T != 0 {
		t.Errorf("self-comparison distinguishable: %+v", d)
	}
}

func TestCompareDegenerate(t *testing.T) {
	one := Describe([]float64{1}, 0, nil)
	many := Describe([]float64{2, 3, 4}, 0, nil)
	if c := Compare(one, many); c.Distinguishable {
		t.Error("single-seed side must never be distinguishable")
	}
	// Zero variance on both sides, different means: exact difference.
	za := Describe([]float64{1, 1, 1}, 0, nil)
	zb := Describe([]float64{2, 2, 2}, 0, nil)
	if c := Compare(za, zb); !c.Distinguishable || !math.IsInf(c.T, -1) {
		t.Errorf("zero-variance separated means: %+v", c)
	}
	if c := Compare(za, za); c.Distinguishable {
		t.Error("identical zero-variance samples distinguishable")
	}
}

// fakeResults builds a 2-point × 3-seed grid of synthetic results in
// grid (seed-major) order.
func fakeResults() []harness.Result {
	mk := func(cell int, label string, seed uint64, prec float64) harness.Result {
		r := harness.Result{Cell: cell, Label: label, Seed: seed,
			Params: map[string]string{"nodes": "2"}}
		r.Precision.Mean = prec
		r.Precision.Max = prec * 2
		r.Accuracy.Max = prec * 3
		r.Width.Mean = prec * 4
		return r
	}
	return []harness.Result{
		mk(0, "a", 7, 1e-6), mk(1, "b", 7, 10e-6),
		mk(2, "a", 8, 1.2e-6), mk(3, "b", 8, 11e-6),
		mk(4, "a", 9, 0.8e-6), mk(5, "b", 9, 9e-6),
	}
}

func TestAggregate(t *testing.T) {
	agg := Aggregate(fakeResults())
	if len(agg) != 2 {
		t.Fatalf("points = %d, want 2", len(agg))
	}
	a, b := agg[0], agg[1]
	if a.Label != "a" || b.Label != "b" {
		t.Fatalf("group order = %q, %q", a.Label, b.Label)
	}
	if len(a.Seeds) != 3 || a.Seeds[0] != 7 || a.Seeds[2] != 9 {
		t.Errorf("seeds = %v", a.Seeds)
	}
	if !almost(a.Precision.Mean, 1e-6, 1e-12) || a.Precision.N != 3 {
		t.Errorf("precision estimate = %+v", a.Precision)
	}
	if !almost(a.PrecisionWorst.Mean, 2e-6, 1e-12) || !almost(a.Accuracy.Mean, 3e-6, 1e-12) {
		t.Errorf("derived metrics: worst %+v acc %+v", a.PrecisionWorst, a.Accuracy)
	}
	if a.Convergence.N != 0 {
		t.Errorf("no timelines, yet convergence N = %d", a.Convergence.N)
	}
	// The two points are an order of magnitude apart: distinguishable.
	if c := Compare(a.Precision, b.Precision); !c.Distinguishable {
		t.Errorf("a vs b not distinguishable: %+v", c)
	}

	// Aggregation must itself be deterministic (bootstrap included).
	again := Aggregate(fakeResults())
	x, y := agg[0].Precision, again[0].Precision
	if x.Mean != y.Mean || x.Lo != y.Lo || x.Hi != y.Hi || x.BootLo != y.BootLo || x.BootHi != y.BootHi {
		t.Errorf("aggregate not deterministic: %+v vs %+v", x, y)
	}
}

func TestAggregateSkipsErroredCells(t *testing.T) {
	rs := fakeResults()
	rs[0].Err = "boom"
	agg := Aggregate(rs)
	if agg[0].Errors != 1 || agg[0].Precision.N != 2 {
		t.Errorf("errored cell not excluded: %+v", agg[0])
	}
	if len(agg[0].Seeds) != 2 || agg[0].Seeds[0] != 8 {
		t.Errorf("seeds = %v", agg[0].Seeds)
	}
}

func TestConvergenceTime(t *testing.T) {
	r := harness.Result{Timeline: []harness.TimelinePoint{
		{T: 0, PrecisionS: 9e-6}, {T: 5, PrecisionS: 4e-6}, {T: 10, PrecisionS: 1e-6},
	}}
	if ct, ok := ConvergenceTime(&r, 5e-6); !ok || ct != 5 {
		t.Errorf("ConvergenceTime = %g, %v", ct, ok)
	}
	if _, ok := ConvergenceTime(&r, 1e-7); ok {
		t.Error("threshold never reached, yet ok")
	}
	if _, ok := ConvergenceTime(&harness.Result{}, 1); ok {
		t.Error("no timeline, yet ok")
	}

	// Timeline-bearing results feed the Convergence estimate at the
	// ConvergedBelowS = 5 µs threshold (4 µs counts as converged).
	rs := fakeResults()
	for i := range rs {
		rs[i].Timeline = []harness.TimelinePoint{{T: 0, PrecisionS: 9e-6}, {T: float64(i + 1), PrecisionS: 4e-6}}
	}
	agg := Aggregate(rs)
	if agg[0].Convergence.N != 3 {
		t.Fatalf("convergence N = %d, want 3", agg[0].Convergence.N)
	}
	// Point "a" sits at cells 0, 2, 4 → convergence times 1, 3, 5.
	if agg[0].Convergence.Mean != 3 || agg[0].Convergence.Min != 1 || agg[0].Convergence.Max != 5 {
		t.Errorf("convergence estimate = %+v", agg[0].Convergence)
	}
}
