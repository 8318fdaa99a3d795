package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/csp"
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
		i := i
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"bg load", "CSPs", "gap min [µs]", "gap max [µs]", "eps [µs]"}
	var eps0 float64
	for _, load := range []float64{0, 0.3, 0.6} {
		g := epsilonRun(seed, kernel.ModeNTI, load, 1000)
		eps := g.Range()
		if load == 0 {
			eps0 = eps
		}
		r.Table.AddRow(fmt.Sprintf("%.0f%%", load*100), fmt.Sprint(g.N()),
			metrics.Us(g.Min()), metrics.Us(g.Max()), metrics.Us(eps))
		r.Numbers[fmt.Sprintf("eps_load%.0f", load*100)] = eps
	}
	r.Claims["eps below 1 µs (idle)"] = eps0 < 1e-6
	r.Claims["eps below 2 µs under 60% load"] = r.Numbers["eps_load60"] < 2e-6
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"class", "eps [µs]", "worst precision [µs]"}
	type row struct {
		name string
		mode kernel.TimestampMode
	}
	var epsByMode, precByMode = map[string]float64{}, map[string]float64{}
	for _, rw := range []row{
		{"task (software-only)", kernel.ModeTask},
		{"ISR (kernel-level)", kernel.ModeISR},
		{"NTI (hardware)", kernel.ModeNTI},
	} {
		g := epsilonRun(seed+1, rw.mode, 0.2, 600)
		eps := g.Range()
		prec := syncPrecision(seed+2, rw.mode)
		epsByMode[rw.name] = eps
		precByMode[rw.name] = prec
		r.Table.AddRow(rw.name, metrics.Us(eps), metrics.Us(prec))
		r.Numbers["eps:"+rw.name] = eps
		r.Numbers["prec:"+rw.name] = prec
	}
	// ε: both software classes pay the medium-access uncertainty on the
	// transmit side (their stamp is taken in step 1/2, before access),
	// so they cluster in the ms range; only the NTI escapes it.
	r.Claims["software eps in ms range, NTI in sub-µs"] =
		epsByMode["task (software-only)"] >= epsByMode["ISR (kernel-level)"] &&
			epsByMode["ISR (kernel-level)"] > 100*epsByMode["NTI (hardware)"]
	// Precision separates all three classes: the convergence function
	// can exploit the ISR class's tighter receive stamps.
	r.Claims["task >> ISR >> NTI in precision"] =
		precByMode["task (software-only)"] > 3*precByMode["ISR (kernel-level)"] &&
			precByMode["ISR (kernel-level)"] > 3*precByMode["NTI (hardware)"]
	r.Claims["NTI precision in µs range"] = precByMode["NTI (hardware)"] < 10e-6
	r.Claims["task precision ≥ 100x NTI"] =
		precByMode["task (software-only)"] > 100*precByMode["NTI (hardware)"]
	r.Notes = append(r.Notes,
		"software transmit stamps are taken before medium access (paper §3.1 step 1), so both software classes inherit the access uncertainty in ε; receive-side differences then drive the precision gap")
	return r
}

// syncPrecision runs a 4-node synchronization with the given
// timestamping class and returns the worst observed precision.
func syncPrecision(seed uint64, mode kernel.TimestampMode) float64 {
	cfg := cluster.Defaults(4, seed)
	cfg.Kernel.Mode = mode
	c := cluster.New(cfg)
	c.Start(1)
	c.RunUntil(15)
	var prec metrics.Series
	for _, cs := range c.RunSampled(15, 45, 1) {
		prec.Add(cs.Precision)
	}
	return prec.Max()
}
