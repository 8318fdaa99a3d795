package experiments

import (
	"strconv"

	"ntisim/internal/cluster"
	"ntisim/internal/discipline"
	"ntisim/internal/harness"
	"ntisim/internal/interval"
	"ntisim/internal/metrics"
)

// E14ConvergenceShootout is the repository's ablation of the convergence
// function — the component the paper says "determines the performance
// and fault-tolerance degree" of the interval-based algorithm (§2). The
// same 8-node system runs with three functions:
//
//   - OA (midpoint): precision from fault-tolerant-midpoint dynamics,
//     accuracy from the Marzullo intersection (the paper's choice);
//   - OA (average): same, with the fault-tolerant average as reference;
//   - Marzullo midpoint: pure intersection dynamics (NTP-style).
func E14ConvergenceShootout(seed uint64) Result {
	r := Result{
		ID:         "E14",
		Title:      "convergence-function ablation: OA-midpoint vs OA-average vs Marzullo",
		PaperClaim: "§2: the convergence function determines performance and fault-tolerance; §5 analyses OA [Sch97b]",
	}
	r.Table.Header = []string{"convergence fn", "worst prec [µs]", "mean prec [µs]", "failures"}

	fns := []struct {
		name string
		fn   discipline.ConvergeFunc
	}{
		{"OA (midpoint)", (*interval.Fuser).OrthogonalAccuracy},
		{"OA (average)", (*interval.Fuser).OrthogonalAccuracyFTA},
		{"Marzullo midpoint", (*interval.Fuser).MarzulloMidpoint},
	}
	spec := harness.Spec{Name: "E14", Base: cluster.Defaults(8, seed),
		DelayProbes: delayProbes, WarmupS: 20, WindowS: 90, SampleEveryS: 0.9}
	for _, f := range fns {
		spec.Points = append(spec.Points, harness.Point{Label: f.name, Mutate: func(c *cluster.Config) {
			c.Sync.Discipline = func() discipline.Discipline { return discipline.WrapConverge("", f.fn) }
		}})
	}
	var prec [3]float64
	var fails [3]uint64
	for i, c := range runCells(spec) {
		prec[i], fails[i] = c.Precision.Max, c.Sync.ConvergenceFailed
		r.Table.AddRow(c.Label, metrics.Us(prec[i]), metrics.Us(c.Precision.Mean), strconv.FormatUint(fails[i], 10))
	}

	const mid, avg, marzullo = 0, 1, 2 // indices into fns
	r.check(Statistical, "all three keep µs-range precision on a healthy LAN",
		prec[mid] < 6e-6 && prec[avg] < 6e-6 && prec[marzullo] < 30e-6)
	r.below(Shape, "averaging at least matches midpoint here", prec[avg], 1.5*prec[mid])
	r.check(Invariant, "no convergence failures", fails[mid] == 0 && fails[avg] == 0)
	r.Notes = append(r.Notes,
		"with healthy, equal-width intervals all functions behave; the differences the paper's analysis targets are worst-case bounds and behaviour under faults (see E12)")
	return r
}
