package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/harness"
	"ntisim/internal/metrics"
	"ntisim/internal/timefmt"
)

// E3GranularitySweep reproduces the §5 analysis: with the OA convergence
// function, clock granularity G and discrete rate-adjustment uncertainty
// u impair the achievable worst-case precision by 4G + 10u, where for
// the adder-based clock u = 1/fosc — hence G = u < 70 ns (fosc > 14 MHz)
// is required for a worst-case precision below 1 µs.
func E3GranularitySweep(seed uint64) Result {
	r := Result{
		ID:         "E3",
		Title:      "precision impairment 4G + 10u across oscillator frequencies",
		PaperClaim: "§5: OA worst-case precision impaired by 4G+10u; u = 1/fosc; G = u < 70 ns (fosc > 14 MHz) needed for < 1 µs",
	}
	r.Table.Header = []string{"fosc [MHz]", "u=1/f [ns]", "4G+10u [µs]", "measured prec [µs]"}
	G := timefmt.Granule
	// Real TCXOs: nodes tick dephased and drifting, so the ±1/fosc
	// input-synchronizer quantization actually shows up as relative
	// noise (ideal, phase-locked oscillators would mask it).
	foscs := []float64{1e6, 2e6, 4e6, 8e6, 14e6, 20e6}
	cells := runCells(harness.Spec{Name: "E3", Base: cluster.Defaults(4, seed),
		Points:      harness.FoscAxis(foscs...).Points,
		DelayProbes: delayProbes, WarmupS: 15, WindowS: 60, SampleEveryS: 0.9})
	precs, bounds := make([]float64, len(foscs)), make([]float64, len(foscs))
	monotone := true
	for i, f := range foscs {
		mhz, u := f/1e6, 1/f
		bounds[i] = granularityImpairment(G, u)
		precs[i] = cells[i].Precision.Max
		r.Table.AddRow(fmt.Sprintf("%.0f", mhz), fmt.Sprintf("%.0f", u*1e9),
			metrics.Us(bounds[i]), metrics.Us(precs[i]))
		if i > 0 && precs[i-1] != 0 && precs[i] > precs[i-1]*1.8 {
			monotone = false // allow noise, forbid clear regressions
		}
	}
	const at1, at8, at14, at20 = 0, 3, 4, 5 // indices into foscs
	r.below(Statistical, "20 MHz precision in low-µs range", precs[at20], 4e-6)
	r.check(Invariant, "impairment bound crosses 1 µs near 14 MHz",
		bounds[at8] > 1e-6 && bounds[at14] <= 1.1e-6)
	r.check(Shape, "precision improves toward high fosc", precs[at20] < precs[at1] && monotone)
	r.Notes = append(r.Notes,
		"G = 2^-24 s is fixed by the NTP time format; u = 1/fosc enters through the input-synchronizer sampling and the rate-step quantum",
		"measured precision flattens below the bound because the COMCO's DMA/arbitration jitter (ε ≈ 0.6 µs) is frequency-independent")
	return r
}

// E4SixteenNode reproduces the headline: worst-case precision/accuracy
// in the 1 µs range on the 16-node prototype system (§1, §4, §6), with
// measured delay bounds and rate synchronization as §2 prescribes.
func E4SixteenNode(seed uint64) Result {
	r := Result{
		ID:         "E4",
		Title:      "16-node prototype: precision/accuracy over 300 rounds",
		PaperClaim: "§1/§6: worst-case precision/accuracy in the 1 µs range; §4: 16-node prototype (4x MVME-162 with 4 NTIs each)",
	}
	cfg := cluster.Defaults(16, seed)
	cfg.Sync.RateSync = true
	// The prototype is an *external* synchronization system: one GPS
	// anchor bounds the ensemble's UTC accuracy (internal sync alone
	// cannot pin the common mode, which random-walks at the mean
	// oscillator drift).
	cfg.GPS = mapGPS(0)
	cell := runCells(harness.Spec{Name: "E4", Base: cfg,
		DelayProbes: delayProbes, WarmupS: 60, WindowS: 300, SampleEveryS: 1})[0]
	prec, acc := cell.Precision, cell.Accuracy
	r.Table.Header = []string{"metric", "mean [µs]", "p99 [µs]", "max [µs]"}
	r.Table.AddRow("precision max|Cp-Cq|", metrics.Us(prec.Mean), metrics.Us(prec.P99), metrics.Us(prec.Max))
	r.Table.AddRow("accuracy  max|Cp-t|", metrics.Us(acc.Mean), metrics.Us(acc.P99), metrics.Us(acc.Max))
	r.zero("accuracy intervals always contain real time", cell.ContainmentViolations)
	r.below(Statistical, "worst UTC accuracy in low-µs range", acc.Max, 20e-6)
	r.below(Statistical, "worst precision in low-µs range", prec.Max, 5e-6)
	r.Notes = append(r.Notes,
		fmt.Sprintf("CSP utilization %.1f%% of the ideal n·(n−1) deliveries", 100*cell.CSPUse))
	return r
}
