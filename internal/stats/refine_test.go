package stats

import (
	"math"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/harness"
)

// syntheticAxis drives refineLoop with closed-form evaluations so the
// bisection contract can be checked without running simulations.
func syntheticAxis(lo, hi float64, integer bool) NumericAxis {
	return NumericAxis{Name: "synthetic", Lo: lo, Hi: hi, Integer: integer}
}

// point is a one-seed evaluation: its CI collapses to the metric.
func point(v, m float64) Evaluation {
	return Evaluation{Value: v, Metric: m, CILo: m, CIHi: m}
}

// checkMonotoneCrossover runs the loop on metric(v) = 0.5e-6 + 2e-6·v,
// which crosses 1.5e-6 exactly at v = 0.5, with every CI a band of
// half-width hw around the metric, and checks that the crossover is
// bracketed within the axis tolerance at bisection cost.
func checkMonotoneCrossover(t *testing.T, hw float64) {
	t.Helper()
	const target, tol, crossing = 1.5e-6, 1e-3, 0.5
	evals := 0
	eval := func(v float64) Evaluation {
		evals++
		m := 0.5e-6 + 2e-6*v
		return Evaluation{Value: v, Metric: m, CILo: m - hw, CIHi: m + hw}
	}
	r := refineLoop(syntheticAxis(0, 0.9, false), target, tol, eval)
	if !r.Bracketed || r.NoiseLimited {
		t.Fatalf("bracketed=%v noiseLimited=%v", r.Bracketed, r.NoiseLimited)
	}
	if r.Hi.Value-r.Lo.Value > tol {
		t.Errorf("bracket width %g > tol %g", r.Hi.Value-r.Lo.Value, tol)
	}
	if r.Lo.Value > crossing || r.Hi.Value < crossing {
		t.Errorf("bracket [%g, %g] excludes the true crossing %g", r.Lo.Value, r.Hi.Value, crossing)
	}
	if (r.Lo.Metric >= target) == (r.Hi.Metric >= target) {
		t.Errorf("bracket metrics %g/%g do not straddle target %g", r.Lo.Metric, r.Hi.Metric, target)
	}
	if len(r.Evals) != evals {
		t.Errorf("recorded %d evals, performed %d", len(r.Evals), evals)
	}
	// Bisection cost: 2 ends + ~log2(range/tol) midpoints.
	if max := 2 + int(math.Ceil(math.Log2(0.9/tol))) + 1; evals > max {
		t.Errorf("evals = %d, want <= %d", evals, max)
	}
}

// TestRefineBracketsMonotoneCrossover: for a strictly monotone metric
// with point CIs (one seed) the loop must bracket the exact crossover
// within the requested axis tolerance, with metrics straddling the
// target.
func TestRefineBracketsMonotoneCrossover(t *testing.T) {
	checkMonotoneCrossover(t, 0)
}

// TestRefineTightIntervalsBisectNormally: when every CI clears the
// target (near-zero seed noise), the loop behaves exactly like plain
// bisection — bracketed to tolerance, not noise-limited.
func TestRefineTightIntervalsBisectNormally(t *testing.T) {
	checkMonotoneCrossover(t, 1e-12)
}

// A decreasing metric must bracket just as well (sign-based bisection).
func TestRefineDecreasingMetric(t *testing.T) {
	eval := func(v float64) Evaluation { return point(v, 10-v) } // crosses 4 at v = 6
	r := refineLoop(syntheticAxis(0, 32, false), 4, 0.125, eval)
	if !r.Bracketed || r.Lo.Value > 6 || r.Hi.Value < 6 {
		t.Fatalf("decreasing metric not bracketed around 6: %+v", r)
	}
	if r.Hi.Value-r.Lo.Value > 0.125 {
		t.Errorf("bracket width %g > tol", r.Hi.Value-r.Lo.Value)
	}
}

// TestRefineNoCrossover: when the target lies outside the metric range
// the loop reports the unbracketed ends instead of looping.
func TestRefineNoCrossover(t *testing.T) {
	eval := func(v float64) Evaluation { return point(v, v) }
	r := refineLoop(syntheticAxis(0, 1, false), 5, 0.01, eval)
	if r.Bracketed || r.NoiseLimited {
		t.Fatalf("target outside range: bracketed=%v noiseLimited=%v", r.Bracketed, r.NoiseLimited)
	}
	if len(r.Evals) != 2 {
		t.Errorf("no-crossover run evaluated %d points, want just the 2 ends", len(r.Evals))
	}
}

// TestRefineIntegerAxis: integer axes snap midpoints and stop when the
// bracket closes to adjacent integers, even with a tiny tolerance.
func TestRefineIntegerAxis(t *testing.T) {
	var seen []float64
	eval := func(v float64) Evaluation {
		seen = append(seen, v)
		return point(v, v*v) // crosses 40 between 6 and 7
	}
	r := refineLoop(syntheticAxis(2, 32, true), 40, 1e-9, eval)
	if !r.Bracketed {
		t.Fatal("integer crossover not bracketed")
	}
	if r.Lo.Value != 6 || r.Hi.Value != 7 {
		t.Errorf("bracket = [%g, %g], want [6, 7]", r.Lo.Value, r.Hi.Value)
	}
	for _, v := range seen {
		if v != math.Trunc(v) {
			t.Errorf("non-integer evaluation %g on integer axis", v)
		}
	}
}

// TestRefineStopsWhenNoiseLimited: a CI that straddles the target at
// the first midpoint must stop the bisection immediately — the bracket
// stays valid (the ends cleared) but refining further would steer on
// noise.
func TestRefineStopsWhenNoiseLimited(t *testing.T) {
	const halfWidth = 0.2
	eval := func(v float64) Evaluation {
		return Evaluation{Value: v, Metric: v, CILo: v - halfWidth, CIHi: v + halfWidth}
	}
	// Ends: 0±0.2 < 0.5 and 1±0.2 > 0.5 both clear; midpoint 0.5±0.2
	// straddles.
	r := refineLoop(syntheticAxis(0, 1, false), 0.5, 1e-3, eval)
	if !r.Bracketed {
		t.Fatal("ends cleared on opposite sides: crossover should be bracketed")
	}
	if !r.NoiseLimited {
		t.Fatal("straddling midpoint CI must set NoiseLimited")
	}
	if len(r.Evals) != 3 {
		t.Errorf("evals = %d, want 3 (2 ends + the straddling midpoint)", len(r.Evals))
	}
	if r.Lo.Value != 0 || r.Hi.Value != 1 {
		t.Errorf("bracket = [%g, %g], want the untightened [0, 1]", r.Lo.Value, r.Hi.Value)
	}
}

// TestRefineEndStraddles: when a range end's own CI straddles the
// target, no crossover direction exists — the run reports the ends,
// unbracketed and noise-limited, without burning midpoint campaigns.
func TestRefineEndStraddles(t *testing.T) {
	eval := func(v float64) Evaluation {
		return Evaluation{Value: v, Metric: v, CILo: v - 0.3, CIHi: v + 0.3}
	}
	r := refineLoop(syntheticAxis(0, 1, false), 0.2, 1e-3, eval) // lo end 0±0.3 straddles 0.2
	if r.Bracketed {
		t.Fatal("straddling end must not claim a bracket")
	}
	if !r.NoiseLimited {
		t.Fatal("straddling end must set NoiseLimited")
	}
	if len(r.Evals) != 2 {
		t.Errorf("evals = %d, want just the 2 ends", len(r.Evals))
	}
}

// TestRefinePartialTightenThenNoiseLimited: the bisection may move a
// bracket end on clean midpoints before hitting a straddling one. The
// run must keep the partially tightened bracket, stay Bracketed, and
// set NoiseLimited.
func TestRefinePartialTightenThenNoiseLimited(t *testing.T) {
	// metric(v) = v, target 0.3. CIs are tight except within 0.2 of the
	// crossover. Midpoint order: 0.5 (clears above → hi), then 0.25
	// (straddles → stop).
	eval := func(v float64) Evaluation {
		hw := 0.01
		if math.Abs(v-0.3) < 0.2 {
			hw = 0.2
		}
		return Evaluation{Value: v, Metric: v, CILo: v - hw, CIHi: v + hw}
	}
	r := refineLoop(syntheticAxis(0, 1, false), 0.3, 1e-3, eval)
	if !r.Bracketed || !r.NoiseLimited {
		t.Fatalf("partial tighten: bracketed=%v noiseLimited=%v", r.Bracketed, r.NoiseLimited)
	}
	if r.Lo.Value != 0 || r.Hi.Value != 0.5 {
		t.Errorf("bracket = [%g, %g], want the partially tightened [0, 0.5]",
			r.Lo.Value, r.Hi.Value)
	}
	if len(r.Evals) != 4 {
		t.Errorf("evals = %d, want 4 (2 ends, 1 clean midpoint, 1 straddle)", len(r.Evals))
	}
}

// TestRefineErroredEvaluation: an evaluation whose cells all errored
// has a NaN metric and CI. It is neither below the target nor
// noise-limited: refinement stops at it, keeps the bracket it had, and
// reports it through Errored.
func TestRefineErroredEvaluation(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name      string
		failAt    float64
		bracketed bool
		evals     int
	}{
		{"range end", 1, false, 2},
		{"midpoint", 0.5, true, 3},
	} {
		eval := func(v float64) Evaluation {
			if v == tc.failAt {
				return point(v, nan)
			}
			return point(v, v) // crosses 0.7 at v = 0.7
		}
		r := refineLoop(syntheticAxis(0, 1, false), 0.7, 1e-3, eval)
		if r.NoiseLimited {
			t.Errorf("%s: an errored evaluation is not noise", tc.name)
		}
		if r.Bracketed != tc.bracketed {
			t.Errorf("%s: bracketed = %v, want %v", tc.name, r.Bracketed, tc.bracketed)
		}
		if len(r.Evals) != tc.evals {
			t.Errorf("%s: evals = %d, want %d", tc.name, len(r.Evals), tc.evals)
		}
		if e, ok := r.Errored(); !ok || e.Value != tc.failAt {
			t.Errorf("%s: Errored() = %g, %v, want %g", tc.name, e.Value, ok, tc.failAt)
		}
		if r.Lo.Value != 0 || r.Hi.Value != 1 {
			t.Errorf("%s: bracket = [%g, %g], want the untouched [0, 1]", tc.name, r.Lo.Value, r.Hi.Value)
		}
	}
	ok := refineLoop(syntheticAxis(0, 1, false), 0.7, 0.1, func(v float64) Evaluation { return point(v, v) })
	if _, errored := ok.Errored(); errored {
		t.Error("a run without errored cells reports one")
	}
}

// refineSpec is a tiny 4-node load-axis campaign over seeds.
func refineSpec(seeds ...uint64) (harness.Spec, NumericAxis) {
	spec := harness.Spec{
		Name:         "refine",
		Base:         cluster.Defaults(2, 1),
		Seeds:        seeds,
		WarmupS:      2,
		WindowS:      4,
		SampleEveryS: 1,
		DelayProbes:  4,
		Workers:      4,
	}
	ax := StandardNumericAxes()["load"]
	ax.Lo, ax.Hi = 0, 0.4
	return spec, ax
}

// TestRefineRealCampaignNoiseLimited drives Refine into the
// NoiseLimited stop with real simulations: the target is placed
// between the two per-seed metric observations at the low range end,
// so its 2-seed bootstrap CI must straddle it and the refinement must
// stop at the ends.
func TestRefineRealCampaignNoiseLimited(t *testing.T) {
	spec, ax := refineSpec(7, 8)

	// Probe the low end to learn its per-seed metrics.
	probe := spec
	probe.Points = []harness.Point{ax.Point(ax.Lo)}
	perSeed := map[uint64]float64{}
	for _, r := range harness.Run(probe).Results {
		if r.Err != "" {
			t.Fatalf("probe cell %s errored: %s", r.Key(), r.Err)
		}
		perSeed[r.Seed] = r.Precision.Mean
	}
	a, b := perSeed[7], perSeed[8]
	if a == b {
		t.Skip("per-seed metrics coincide; cannot place a straddling target")
	}
	target := (a + b) / 2

	r := Refine(spec, ax, target, 0.05)
	if !r.NoiseLimited {
		t.Fatalf("target %g between per-seed observations %g/%g must be noise-limited: %+v",
			target, a, b, r)
	}
	if r.Bracketed {
		t.Error("straddling range end must not claim a bracket")
	}
	if len(r.Evals) != 2 {
		t.Errorf("evals = %d, want just the 2 ends", len(r.Evals))
	}
	lo := r.Evals[0]
	if above, ok := lo.Clears(target); ok {
		t.Errorf("low end unexpectedly cleared the target (above=%v, CI [%g, %g])",
			above, lo.CILo, lo.CIHi)
	}
}

// TestRefineRealCampaign exercises Refine end to end: every evaluation
// carries one result per seed and a plausible metric, the whole
// refinement is reproducible across re-runs, and with one seed each CI
// collapses to its metric.
func TestRefineRealCampaign(t *testing.T) {
	spec, ax := refineSpec(7, 8)
	run := func() Refinement {
		// Huge target: no crossover expected — only the 2 end evaluations
		// run, keeping the test cheap while covering the Run wiring.
		return Refine(spec, ax, 1.0, 0.1)
	}
	a, b := run(), run()
	if len(a.Evals) != 2 {
		t.Fatalf("evals = %d, want 2", len(a.Evals))
	}
	if a.Bracketed || a.NoiseLimited {
		t.Fatalf("target far above range: bracketed=%v noiseLimited=%v", a.Bracketed, a.NoiseLimited)
	}
	for _, e := range a.Evals {
		if len(e.Results) != 2 {
			t.Fatalf("evaluation at %g has %d results, want one per seed", e.Value, len(e.Results))
		}
		if math.IsNaN(e.Metric) || e.Metric <= 0 {
			t.Errorf("implausible metric %g at %g", e.Metric, e.Value)
		}
	}
	for i := range a.Evals {
		if a.Evals[i].Value != b.Evals[i].Value || a.Evals[i].Metric != b.Evals[i].Metric {
			t.Errorf("refinement not reproducible at eval %d: %+v vs %+v", i, a.Evals[i], b.Evals[i])
		}
	}

	spec.Seeds = spec.Seeds[:1]
	for _, e := range Refine(spec, ax, 1.0, 0.1).Evals {
		if e.CILo != e.Metric || e.CIHi != e.Metric {
			t.Errorf("one seed at %g: CI [%g, %g], want the point %g", e.Value, e.CILo, e.CIHi, e.Metric)
		}
	}
}

// TestRefineRealCampaignBootstrapCI: with several seeds, per-seed
// observations feed a deterministic bootstrap whose CI contains the
// metric without collapsing to it, identically across re-runs.
func TestRefineRealCampaignBootstrapCI(t *testing.T) {
	spec, ax := refineSpec(7, 8, 9)
	run := func() Refinement {
		// Huge target: only the 2 end evaluations run.
		return Refine(spec, ax, 1.0, 0.1)
	}
	a, b := run(), run()
	if len(a.Evals) != 2 {
		t.Fatalf("evals = %d, want 2", len(a.Evals))
	}
	if a.Bracketed || a.NoiseLimited {
		t.Fatalf("target far above range: bracketed=%v noiseLimited=%v", a.Bracketed, a.NoiseLimited)
	}
	for _, e := range a.Evals {
		if len(e.Results) != 3 {
			t.Fatalf("evaluation at %g has %d results, want one per seed", e.Value, len(e.Results))
		}
		if !(e.CILo <= e.Metric && e.Metric <= e.CIHi) {
			t.Errorf("at %g: CI [%g, %g] does not contain metric %g", e.Value, e.CILo, e.CIHi, e.Metric)
		}
		if e.CILo == e.CIHi {
			t.Errorf("at %g: 3-seed bootstrap CI collapsed to a point", e.Value)
		}
	}
	for i := range a.Evals {
		if a.Evals[i].Metric != b.Evals[i].Metric ||
			a.Evals[i].CILo != b.Evals[i].CILo || a.Evals[i].CIHi != b.Evals[i].CIHi {
			t.Errorf("bootstrap CI not reproducible at eval %d: %+v vs %+v", i, a.Evals[i], b.Evals[i])
		}
	}
}
