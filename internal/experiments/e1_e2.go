package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/csp"
	"ntisim/internal/harness"
	"ntisim/internal/kernel"
	"ntisim/internal/metrics"
	"ntisim/internal/network"
)

// epsilonRun measures the transmission/reception uncertainty ε on a
// two-node system: the spread of (hardware rx stamp − hardware tx
// stamp) over many CSPs, with both clocks ideal so stamp differences
// reflect the true data-path delay alone.
func epsilonRun(seed uint64, mode kernel.TimestampMode, load float64, nCSP int) metrics.Series {
	cfg := cluster.Defaults(2, seed)
	cfg.Kernel.Mode = mode
	cfg.IdealOscillators = true
	cfg.BackgroundLoad = load
	c := cluster.New(cfg)
	var gaps metrics.Series
	c.Members[1].Node.OnCSP(func(ar kernel.Arrival) {
		tx, ok := ar.Pkt.TxStamp()
		if !ok || !ar.StampOK {
			return
		}
		gaps.Add(ar.RxStamp.Sub(tx).Seconds())
	})
	for i := 0; i < nCSP; i++ {
		c.Members[0].Node.Sim.After(0.01+float64(i)*0.003, func() {
			c.Members[0].Node.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: uint32(i)}, network.Broadcast)
		})
	}
	c.RunUntil(0.02 + float64(nCSP)*0.003 + 1)
	return gaps
}

// E1Epsilon reproduces §4's two-node measurement: "some preliminary
// experiments with a two-node system revealed a transmission/reception
// time uncertainty ε well below 1 µs".
func E1Epsilon(seed uint64) Result {
	r := Result{
		ID:         "E1",
		Title:      "two-node transmission/reception uncertainty ε (NTI hardware timestamping)",
		PaperClaim: "§4: ε well below 1 µs on the two-node MVME-162 prototype",
	}
	r.Table.Header = []string{"bg load", "CSPs", "gap min [µs]", "gap max [µs]", "eps [µs]"}
	var eps [3]float64 // at 0, 30 and 60% load
	for i, load := range []float64{0, 0.3, 0.6} {
		g := epsilonRun(seed, kernel.ModeNTI, load, 1000)
		eps[i] = g.Range()
		r.Table.AddRow(fmt.Sprintf("%.0f%%", load*100), fmt.Sprint(g.N()),
			metrics.Us(g.Min()), metrics.Us(g.Max()), metrics.Us(eps[i]))
	}
	r.below(Statistical, "eps below 1 µs (idle)", eps[0], 1e-6)
	r.below(Statistical, "eps below 2 µs under 60% load", eps[2], 2e-6)
	r.Notes = append(r.Notes,
		"ε is the spread of (hw rx stamp − hw tx stamp); timestamps are taken at the COMCO's trigger accesses, after medium access, so background load barely moves it")
	return r
}

// E2TimestampClasses reproduces the §1/§3.1 classification: purely
// software timestamping (task level) lands in the ms range, kernel/ISR
// level in the 100 µs range, NTI hardware support in the µs range.
func E2TimestampClasses(seed uint64) Result {
	r := Result{
		ID:         "E2",
		Title:      "timestamping classes: task-level vs ISR-level vs NTI hardware",
		PaperClaim: "§1: software-only ≈ ms range, brought down to µs with moderate hardware support; §3.1 steps 1–7",
	}
	r.Table.Header = []string{"class", "eps [µs]", "worst precision [µs]"}
	rows := []struct {
		name string
		mode kernel.TimestampMode
	}{
		{"task (software-only)", kernel.ModeTask},
		{"ISR (kernel-level)", kernel.ModeISR},
		{"NTI (hardware)", kernel.ModeNTI},
	}
	// Sync precision: a 4-node synchronization per class, sampled
	// once per second over 15..45 s with the a priori delay bounds.
	spec := harness.Spec{Name: "E2", Base: cluster.Defaults(4, seed+2),
		DelayProbes: -1, WarmupS: 15, WindowS: 30, SampleEveryS: 1}
	for _, rw := range rows {
		spec.Points = append(spec.Points, harness.Point{Label: rw.name,
			Mutate: func(c *cluster.Config) { c.Kernel.Mode = rw.mode }})
	}
	cells := runCells(spec)
	var eps, prec [3]float64 // task, ISR, NTI
	for i, rw := range rows {
		g := epsilonRun(seed+1, rw.mode, 0.2, 600)
		eps[i], prec[i] = g.Range(), cells[i].Precision.Max
		r.Table.AddRow(rw.name, metrics.Us(eps[i]), metrics.Us(prec[i]))
	}
	const task, isr, nti = 0, 1, 2
	r.below(Statistical, "NTI precision in µs range", prec[nti], 10e-6)
	// ε: both software classes pay the medium-access uncertainty on the
	// transmit side (their stamp is taken in step 1/2, before access),
	// so they cluster in the ms range; only the NTI escapes it.
	r.check(Shape, "software eps in ms range, NTI in sub-µs",
		eps[task] >= eps[isr] && eps[isr] > 100*eps[nti])
	// Precision separates all three classes: the convergence function
	// can exploit the ISR class's tighter receive stamps.
	r.check(Shape, "task >> ISR >> NTI in precision",
		prec[task] > 3*prec[isr] && prec[isr] > 3*prec[nti])
	r.above(Statistical, "task precision ≥ 100x NTI", prec[task], 100*prec[nti])
	r.Notes = append(r.Notes,
		"software transmit stamps are taken before medium access (paper §3.1 step 1), so both software classes inherit the access uncertainty in ε; receive-side differences then drive the precision gap")
	return r
}
