package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/harness"
	"ntisim/internal/metrics"
)

// E5GPSValidation reproduces §2/§5: interval-based clock validation
// accepts a highly accurate external interval only when consistent with
// the internally derived validation interval, so a faulty GPS receiver
// (offset, wrong-second — failure classes from the authors' own [HS97]
// study) cannot wreck the ensemble, while naive trust can.
func E5GPSValidation(seed uint64) Result {
	r := Result{
		ID:         "E5",
		Title:      "clock validation vs naive trust under GPS receiver faults",
		PaperClaim: "§2: faulty external interval only considered if consistent with the validation interval; §5/[HS97]: receivers do fail",
	}
	r.Table.Header = []string{"policy", "fault", "worst acc [µs]", "worst prec [µs]", "rejected"}

	// Receivers 0 and 1 are healthy, receiver 2 carries the fault; the
	// three validated rows come out in names order, naive trust last.
	names := []string{"offset 20 ms", "wrong-second", "ramp 10 µs/s"}
	wrongSec := harness.FaultScenario{Kind: gps.FaultWrongSec, Magnitude: 1, StartS: 60}
	naive := wrongSec
	naive.Trust = true
	scenarios := []harness.FaultScenario{
		{Kind: gps.FaultOffset, Magnitude: 20e-3, StartS: 60},
		wrongSec,
		{Kind: gps.FaultRampDrift, Magnitude: 10e-6, StartS: 60},
		naive,
	}
	cells := runCells(harness.Spec{Name: "E5", Base: cluster.Defaults(8, seed),
		Points:      harness.FaultAxis(3, scenarios...).Points,
		DelayProbes: delayProbes, WarmupS: 90, WindowS: 120, SampleEveryS: 1})
	var acc [3]float64
	var rej [3]uint64
	for i, name := range names {
		c := cells[i]
		acc[i], rej[i] = c.Accuracy.Max, c.Sync.ExternalRejected
		r.Table.AddRow("validated", name, metrics.Us(acc[i]), metrics.Us(c.Precision.Max), fmt.Sprint(rej[i]))
	}
	accT, precT := cells[3].Accuracy.Max, cells[3].Precision.Max
	r.Table.AddRow("naive trust", "wrong-second", metrics.Us(accT), metrics.Us(precT), "-")

	const offset, wrongSecond, ramp = 0, 1, 2 // indices into names
	r.check(Invariant, "faulty intervals actually rejected", rej[offset] > 0 && rej[wrongSecond] > 0)
	r.above(Shape, "naive trust is >100x worse on wrong-second", accT, 100*acc[wrongSecond])
	r.check(Invariant, "validation keeps accuracy bounded under all faults",
		acc[offset] < 100e-6 && acc[wrongSecond] < 100e-6 && acc[ramp] < 200e-6)
	return r
}

// E6RateSync reproduces §2's rate-synchronization promise: the
// interval-based rate algorithm [Scho97] "effectively reduces the
// maximum drift without necessitating highly accurate and stable
// oscillators at each node" — visible as slower accuracy-interval
// growth (smaller deterioration bound) at unchanged precision.
func E6RateSync(seed uint64) Result {
	r := Result{
		ID:         "E6",
		Title:      "rate synchronization: accuracy-interval growth with TCXO-grade oscillators",
		PaperClaim: "§2: rate synchronization reduces the maximum drift bound used for interval deterioration",
	}
	r.Table.Header = []string{"rate sync", "deterioration [µs/s]", "worst prec [µs]", "worst rate cmd [ppb]"}
	run := func(on bool) (detPerSec, prec float64, rateCmd int64) {
		cfg := cluster.Defaults(8, seed)
		cfg.Sync.RateSync = on
		cfg.Sync.RhoPPB = 3000 // honest a priori bound for the TCXOs
		c := cluster.New(cfg)
		c.MeasureDelay(0, 1, delayProbes)
		c.Start(c.Now() + 1)
		c.RunUntil(c.Now() + 120) // let the rate loop settle
		var prec_ metrics.Series
		var det metrics.Series
		// Measure the ACU's deterioration rate: sample each node's
		// interval width twice, 0.5 s apart, away from resync instants
		// (rounds start at whole seconds; sample at +0.30 and +0.80).
		base := float64(int64(c.Now())) + 2
		for k := 0; k < 60; k++ {
			t0 := base + float64(k)
			c.RunUntil(t0 + 0.55)
			cs := c.Snapshot()
			prec_.Add(cs.Precision)
			c.RunUntil(t0 + 0.95)
			det.Add((c.Snapshot().MeanWidth - cs.MeanWidth) / 0.4)
		}
		for _, m := range c.Members {
			if rp := m.U.RatePPB(); rp > rateCmd {
				rateCmd = rp
			} else if -rp > rateCmd {
				rateCmd = -rp
			}
		}
		return det.Mean(), prec_.Max(), rateCmd
	}
	dOn, pOn, rcOn := run(true)
	dOff, pOff, _ := run(false)
	r.Table.AddRow("on", metrics.Us(dOn), metrics.Us(pOn), fmt.Sprint(rcOn))
	r.Table.AddRow("off", metrics.Us(dOff), metrics.Us(pOff), "0 (free-running)")
	r.below(Shape, "precision not degraded", pOn, 2*pOff)
	r.above(Shape, "rate sync cuts interval deterioration ≥ 3x", dOff, 3*dOn)
	r.Notes = append(r.Notes,
		"deterioration is the ACU's automatic interval growth between resynchronizations: 2·ρ per second, with ρ dynamic under rate sync vs the 3000 ppb a priori bound")
	return r
}
