package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/gps"
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"policy", "fault", "worst acc [µs]", "worst prec [µs]", "rejected"}

	run := func(trust bool, fault gps.Fault) (acc, prec float64, rejected uint64) {
		cfg := cluster.Defaults(8, seed)
		cfg.Sync.TrustExternal = trust
		healthy := gps.DefaultReceiver()
		faulty := gps.DefaultReceiver()
		faulty.Faults = []gps.Fault{fault}
		cfg.GPS = map[int]gps.Config{0: healthy, 1: healthy, 2: faulty}
		c := cluster.New(cfg)
		applyMeasuredDelays(c)
		c.Start(c.Now() + 1)
		p, a, _ := precisionWindow(c, c.Now()+90, 120, 1)
		for _, m := range c.Members {
			rejected += m.Sync.Stats().ExternalRejected
		}
		return a.Max(), p.Max(), rejected
	}

	// A slice, not a map: the table rows come out in this fixed order.
	wrongSec := gps.Fault{Kind: gps.FaultWrongSec, Start: 60, Magnitude: 1}
	faults := []struct {
		name  string
		fault gps.Fault
	}{
		{"offset 20 ms", gps.Fault{Kind: gps.FaultOffset, Start: 60, Magnitude: 20e-3}},
		{"wrong-second", wrongSec},
		{"ramp 10 µs/s", gps.Fault{Kind: gps.FaultRampDrift, Start: 60, Magnitude: 10e-6}},
	}
	for _, f := range faults {
		accV, precV, rej := run(false, f.fault)
		r.Table.AddRow("validated", f.name, metrics.Us(accV), metrics.Us(precV), fmt.Sprint(rej))
		r.Numbers["validated_acc:"+f.name] = accV
		r.Numbers["validated_rej:"+f.name] = float64(rej)
	}
	accT, precT, _ := run(true, wrongSec)
	r.Table.AddRow("naive trust", "wrong-second", metrics.Us(accT), metrics.Us(precT), "-")
	r.Numbers["naive_acc"] = accT

	r.Claims["validation keeps accuracy bounded under all faults"] =
		r.Numbers["validated_acc:offset 20 ms"] < 100e-6 &&
			r.Numbers["validated_acc:wrong-second"] < 100e-6 &&
			r.Numbers["validated_acc:ramp 10 µs/s"] < 200e-6
	r.Claims["faulty intervals actually rejected"] =
		r.Numbers["validated_rej:offset 20 ms"] > 0 && r.Numbers["validated_rej:wrong-second"] > 0
	r.Claims["naive trust is >100x worse on wrong-second"] =
		accT > 100*r.Numbers["validated_acc:wrong-second"]
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"rate sync", "deterioration [µs/s]", "worst prec [µs]", "worst rate cmd [ppb]"}
	run := func(on bool) (detPerSec, prec float64, rateCmd int64) {
		cfg := cluster.Defaults(8, seed)
		cfg.Sync.RateSync = on
		cfg.Sync.RhoPPB = 3000 // honest a priori bound for the TCXOs
		c := cluster.New(cfg)
		applyMeasuredDelays(c)
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
			w0 := meanWidth(c)
			cs := c.Snapshot()
			prec_.Add(cs.Precision)
			c.RunUntil(t0 + 0.95)
			det.Add((meanWidth(c) - w0) / 0.4)
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
	r.Numbers["det_on"] = dOn
	r.Numbers["det_off"] = dOff
	r.Numbers["prec_on"] = pOn
	r.Numbers["prec_off"] = pOff
	r.Claims["rate sync cuts interval deterioration ≥ 3x"] = dOff > 3*dOn
	r.Claims["precision not degraded"] = pOn < 2*pOff
	r.Notes = append(r.Notes,
		"deterioration is the ACU's automatic interval growth between resynchronizations: 2·ρ per second, with ρ dynamic under rate sync vs the 3000 ppb a priori bound")
	return r
}

// meanWidth averages the current accuracy-interval width across nodes.
func meanWidth(c *cluster.Cluster) float64 {
	var w metrics.Series
	for _, m := range c.Members {
		am, ap := m.U.Alpha()
		w.Add(am.Duration().Seconds() + ap.Duration().Seconds())
	}
	return w.Mean()
}
