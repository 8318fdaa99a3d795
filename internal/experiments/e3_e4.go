package experiments

import (
	"fmt"
	"math"

	"ntisim/internal/cluster"
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"fosc [MHz]", "u=1/f [ns]", "4G+10u [µs]", "measured prec [µs]"}
	G := timefmt.Granule
	var prev float64
	monotone := true
	for _, mhz := range []float64{1, 2, 4, 8, 14, 20} {
		f := mhz * 1e6
		u := 1 / f
		bound := granularityImpairment(G, u)
		// Real TCXOs: nodes tick dephased and drifting, so the ±1/fosc
		// input-synchronizer quantization actually shows up as relative
		// noise (ideal, phase-locked oscillators would mask it).
		cfg := cluster.Defaults(4, seed)
		cfg.OscHz = f
		c := cluster.New(cfg)
		applyMeasuredDelays(c)
		c.Start(c.Now() + 1)
		prec, _, _ := precisionWindow(c, c.Now()+15, 60, 0.9)
		r.Table.AddRow(fmt.Sprintf("%.0f", mhz), fmt.Sprintf("%.0f", u*1e9),
			metrics.Us(bound), metrics.Us(prec.Max()))
		r.Numbers[fmt.Sprintf("prec_%0.0fMHz", mhz)] = prec.Max()
		r.Numbers[fmt.Sprintf("bound_%0.0fMHz", mhz)] = bound
		if prev != 0 && prec.Max() > prev*1.8 {
			monotone = false // allow noise, forbid clear regressions
		}
		prev = prec.Max()
	}
	r.Claims["impairment bound crosses 1 µs near 14 MHz"] =
		r.Numbers["bound_8MHz"] > 1e-6 && r.Numbers["bound_14MHz"] <= 1.1e-6
	r.Claims["precision improves toward high fosc"] =
		r.Numbers["prec_20MHz"] < r.Numbers["prec_1MHz"] && monotone
	r.Claims["20 MHz precision in low-µs range"] = r.Numbers["prec_20MHz"] < 4e-6
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	cfg := cluster.Defaults(16, seed)
	cfg.Sync.RateSync = true
	// The prototype is an *external* synchronization system: one GPS
	// anchor bounds the ensemble's UTC accuracy (internal sync alone
	// cannot pin the common mode, which random-walks at the mean
	// oscillator drift).
	cfg.GPS = mapGPS(0)
	c := cluster.New(cfg)
	applyMeasuredDelays(c)
	c.Start(c.Now() + 1)
	prec, acc, viol := precisionWindow(c, c.Now()+60, 300, 1)
	r.Table.Header = []string{"metric", "mean [µs]", "p99 [µs]", "max [µs]"}
	r.Table.AddRow("precision max|Cp-Cq|", metrics.Us(prec.Mean()), metrics.Us(prec.Percentile(0.99)), metrics.Us(prec.Max()))
	r.Table.AddRow("accuracy  max|Cp-t|", metrics.Us(acc.Mean()), metrics.Us(acc.Percentile(0.99)), metrics.Us(acc.Max()))
	r.Numbers["precision_max"] = prec.Max()
	r.Numbers["accuracy_max"] = acc.Max()
	r.Numbers["containment_violations"] = float64(viol)
	r.Claims["worst precision in low-µs range"] = prec.Max() < 5e-6
	r.Claims["worst UTC accuracy in low-µs range"] = acc.Max() < 20e-6
	r.Claims["accuracy intervals always contain real time"] = viol == 0
	used, sent := 0.0, 0.0
	for _, m := range c.Members {
		st := m.Sync.Stats()
		used += float64(st.CSPsUsed)
		sent += float64(st.CSPsSent)
	}
	r.Numbers["csp_use_ratio"] = used / math.Max(sent*15, 1)
	r.Notes = append(r.Notes,
		fmt.Sprintf("CSP utilization %.1f%% of the ideal n·(n−1) deliveries", 100*r.Numbers["csp_use_ratio"]))
	return r
}
