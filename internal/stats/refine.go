// Adaptive grid refinement: instead of sweeping a fixed axis grid,
// bisect one numeric parameter until the crossover of a precision
// target (e.g. mean precision crossing 1 µs) is bracketed to a
// requested axis tolerance. Every evaluation is a full multi-seed
// mini-campaign through harness.Run, so refinement inherits the pool
// parallelism and the determinism guarantee: bisection decisions
// depend only on aggregated results, never on wall-clock or completion
// order.

package stats

import (
	"fmt"
	"math"

	"ntisim/internal/harness"
	"ntisim/internal/sim"
)

// NumericAxis is a continuously refinable sweep parameter: a point
// factory over a scalar value plus the default search range.
type NumericAxis struct {
	Name   string
	Lo, Hi float64
	// Integer snaps bisection midpoints to whole values (cluster
	// sizes); refinement stops when no untried integer remains between
	// the bracket ends.
	Integer bool
	// Point builds the grid point for one axis value.
	Point func(v float64) harness.Point
}

// StandardNumericAxes maps axis names (as accepted by nticampaign
// -refine) to their refinable form, reusing the harness sweep-axis
// constructors so a refined point is configured exactly like its
// swept counterpart.
func StandardNumericAxes() map[string]NumericAxis {
	return map[string]NumericAxis{
		"load": {Name: "load", Lo: 0, Hi: 0.9,
			Point: func(v float64) harness.Point { return harness.LoadAxis(v).Points[0] }},
		"period": {Name: "period", Lo: 0.25, Hi: 4,
			Point: func(v float64) harness.Point { return harness.PeriodAxis(v).Points[0] }},
		"fosc": {Name: "fosc", Lo: 1e6, Hi: 20e6,
			Point: func(v float64) harness.Point { return harness.FoscAxis(v).Points[0] }},
		"nodes": {Name: "nodes", Lo: 2, Hi: 32, Integer: true,
			Point: func(v float64) harness.Point { return harness.NodesAxis(int(v)).Points[0] }},
	}
}

// Evaluation is one refined axis value: the cells run at that value
// (all seeds) and the mean precision the bisection steered by.
type Evaluation struct {
	Value  float64
	Metric float64
	// CILo/CIHi is the bootstrap 95% confidence interval of Metric
	// across seeds; it collapses to [Metric, Metric] with one seed.
	CILo, CIHi float64
	Results    []harness.Result
}

// Clears reports whether the evaluation's CI lies entirely on one side
// of target (above = CILo ≥ target, below = CIHi < target). ok is
// false when the CI straddles target — the seed sample cannot resolve
// which side this value is on.
func (e Evaluation) Clears(target float64) (above, ok bool) {
	if e.CILo >= target {
		return true, true
	}
	if e.CIHi < target {
		return false, true
	}
	return false, false
}

// errored reports whether every cell of the evaluation failed, which
// leaves it without a metric.
func (e Evaluation) errored() bool { return math.IsNaN(e.Metric) }

// Refinement is the outcome of an adaptive-refinement run.
type Refinement struct {
	// Evals lists every evaluated value in evaluation order (the two
	// range ends first, then midpoints).
	Evals []Evaluation
	// Lo and Hi are the final bracket, Lo.Value < Hi.Value. When
	// Bracketed, their CIs lie on opposite sides of the target; unless
	// NoiseLimited or Errored, Hi.Value−Lo.Value ≤ tol (or no untried
	// integer remains for an Integer axis).
	Lo, Hi    Evaluation
	Bracketed bool
	// NoiseLimited is set when bisection stopped because an
	// evaluation's bootstrap CI straddled the target: the crossover is
	// bracketed (if Bracketed) but cannot be narrowed further at this
	// seed count — the fix is more seeds, not more midpoints.
	NoiseLimited bool
}

// Errored returns the evaluation whose cells all errored, if any.
// Refinement stops at it: a value without a metric says nothing about
// which side of the target it lies on.
func (r Refinement) Errored() (Evaluation, bool) {
	for _, e := range r.Evals {
		if e.errored() {
			return e, true
		}
	}
	return Evaluation{}, false
}

// meanPrecision is the refinement metric: the mean across non-errored
// cells of the per-cell mean precision, in seconds (NaN if none).
func meanPrecision(rs []harness.Result) float64 {
	var sum float64
	n := 0
	for i := range rs {
		if rs[i].Err != "" {
			continue
		}
		sum += rs[i].Precision.Mean
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Refine bisects ax over [ax.Lo, ax.Hi] until the mean-precision
// crossover of target is bracketed to tol (axis units). spec.Points is
// ignored: each evaluation runs the axis point under every spec seed.
//
// Decisions use the bootstrap 95% confidence interval of the metric
// across seeds rather than its point estimate. An evaluation only
// moves a bracket end when its whole CI clears the target; when a CI
// straddles the target the run stops with NoiseLimited set, because
// another midpoint would be steering on noise — the honest next step
// is more seeds, not a narrower bracket. With a single seed the CI is
// the point itself and this is plain bisection.
//
// The bootstrap RNG is derived from Base.Seed, the axis name and the
// axis value, never from wall clock, so refinement reports stay
// byte-deterministic.
func Refine(spec harness.Spec, ax NumericAxis, target, tol float64) Refinement {
	return refineLoop(ax, target, tol, func(v float64) Evaluation {
		sp := spec
		sp.Points = []harness.Point{ax.Point(v)}
		rs := harness.Run(sp).Results
		m := meanPrecision(rs)
		e := Evaluation{Value: v, Metric: m, CILo: m, CIHi: m, Results: rs}
		// One point per evaluation: each non-errored cell is one seed's
		// observation.
		var obs []float64
		for i := range rs {
			if rs[i].Err == "" {
				obs = append(obs, rs[i].Precision.Mean)
			}
		}
		rng := sim.NewRNG(sim.DeriveSeed(sp.Base.Seed,
			fmt.Sprintf("refine-ci/%s/%x", ax.Name, math.Float64bits(v))))
		if est := Describe(obs, bootstrapResamples, rng); est.N > 0 {
			e.CILo, e.CIHi = est.BootLo, est.BootHi
		}
		return e
	})
}

// refineLoop is the bisection engine behind Refine, split out so tests
// can drive it with synthetic evaluations carrying hand-built
// confidence intervals. It assumes the metric is monotone over the
// range (either direction); a non-monotone metric still terminates but
// may bracket an arbitrary crossover.
func refineLoop(ax NumericAxis, target, tol float64, eval func(v float64) Evaluation) Refinement {
	var r Refinement
	lo, hi := eval(ax.Lo), eval(ax.Hi)
	r.Evals = append(r.Evals, lo, hi)
	r.Lo, r.Hi = lo, hi
	if lo.errored() || hi.errored() {
		return r
	}
	loAbove, loOK := lo.Clears(target)
	hiAbove, hiOK := hi.Clears(target)
	if !loOK || !hiOK {
		// A range end already straddles the target: no crossover
		// direction can be established at this seed count.
		r.NoiseLimited = true
		return r
	}
	if loAbove == hiAbove {
		return r // no crossover inside the range
	}
	r.Bracketed = true
	for hi.Value-lo.Value > tol {
		mv := (lo.Value + hi.Value) / 2
		if ax.Integer {
			mv = math.Round(mv)
			if mv == lo.Value || mv == hi.Value {
				break
			}
		}
		m := eval(mv)
		r.Evals = append(r.Evals, m)
		if m.errored() {
			break
		}
		mAbove, mOK := m.Clears(target)
		if !mOK {
			r.NoiseLimited = true
			break
		}
		if mAbove == loAbove {
			lo = m
		} else {
			hi = m
		}
	}
	r.Lo, r.Hi = lo, hi
	return r
}
