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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"convergence fn", "worst prec [µs]", "mean prec [µs]", "failures"}

	fns := []struct {
		name string
		fn   discipline.ConvergeFunc
	}{
		{"OA (midpoint)", interval.OrthogonalAccuracy},
		{"OA (average)", interval.OrthogonalAccuracyFTA},
		{"Marzullo midpoint", interval.MarzulloMidpoint},
	}
	spec := harness.Spec{Name: "E14", Base: cluster.Defaults(8, seed),
		DelayProbes: delayProbes, WarmupS: 20, WindowS: 90, SampleEveryS: 0.9}
	for _, f := range fns {
		spec.Points = append(spec.Points, harness.Point{Label: f.name, Mutate: func(c *cluster.Config) {
			c.Sync.Discipline = func() discipline.Discipline { return discipline.WrapConverge("", f.fn) }
		}})
	}
	for _, c := range runCells(spec) {
		fails := c.Sync.ConvergenceFailed
		r.Table.AddRow(c.Label, metrics.Us(c.Precision.Max), metrics.Us(c.Precision.Mean), strconv.FormatUint(fails, 10))
		r.Numbers["prec:"+c.Label] = c.Precision.Max
		r.Numbers["fails:"+c.Label] = float64(fails)
	}

	r.Claims["all three keep µs-range precision on a healthy LAN"] =
		r.Numbers["prec:OA (midpoint)"] < 6e-6 &&
			r.Numbers["prec:OA (average)"] < 6e-6 &&
			r.Numbers["prec:Marzullo midpoint"] < 30e-6
	r.Claims["averaging at least matches midpoint here"] =
		r.Numbers["prec:OA (average)"] < 1.5*r.Numbers["prec:OA (midpoint)"]
	r.Claims["no convergence failures"] =
		r.Numbers["fails:OA (midpoint)"] == 0 && r.Numbers["fails:OA (average)"] == 0
	r.Notes = append(r.Notes,
		"with healthy, equal-width intervals all functions behave; the differences the paper's analysis targets are worst-case bounds and behaviour under faults (see E12)")
	return r
}
