package experiments

import (
	"strconv"

	"ntisim/internal/cluster"
	"ntisim/internal/discipline"
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

	run := func(name string, fn discipline.ConvergeFunc) {
		cfg := cluster.Defaults(8, seed)
		cfg.Sync.Discipline = func() discipline.Discipline { return discipline.WrapConverge("", fn) }
		c := cluster.New(cfg)
		applyMeasuredDelays(c)
		c.Start(c.Now() + 1)
		prec, _, _ := precisionWindow(c, c.Now()+20, 90, 0.9)
		var fails uint64
		for _, m := range c.Members {
			fails += m.Sync.Stats().ConvergenceFailed
		}
		r.Table.AddRow(name, metrics.Us(prec.Max()), metrics.Us(prec.Mean()), strconv.FormatUint(fails, 10))
		r.Numbers["prec:"+name] = prec.Max()
		r.Numbers["fails:"+name] = float64(fails)
	}
	run("OA (midpoint)", interval.OrthogonalAccuracy)
	run("OA (average)", interval.OrthogonalAccuracyFTA)
	run("Marzullo midpoint", interval.MarzulloMidpoint)

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
