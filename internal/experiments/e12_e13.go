package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/csp"
	"ntisim/internal/kernel"
	"ntisim/internal/metrics"
	"ntisim/internal/network"
	"ntisim/internal/timefmt"
)

// E12ByzantineNode exercises the fault-tolerance requirement (P)/(A) of
// the generic algorithm (paper §2): with at most f faulty nodes, the
// *correct* nodes keep precision and containment. The faulty node is
// not crashed but actively misleading: its clock is yanked around by
// milliseconds every round, so its hardware-stamped CSPs carry
// confidently-wrong intervals.
func E12ByzantineNode(seed uint64) Result {
	r := Result{
		ID:         "E12",
		Title:      "actively faulty node: (P)/(A) among correct nodes with f-tolerant convergence",
		PaperClaim: "§2: (P) and (A) must hold for all nodes non-faulty up to t, despite faulty input intervals",
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"F", "correct-node worst prec [µs]", "containment violations"}

	run := func(f int) (prec float64, violations int) {
		cfg := cluster.Defaults(7, seed)
		cfg.Sync.F = f
		c := cluster.New(cfg)
		applyMeasuredDelays(c)
		c.Start(c.Now() + 1)
		evil := c.Members[6]
		rng := evil.Node.Sim.RNG("byzantine")
		// Yank the faulty node's clock by ±1..3 ms once per round.
		tick := evil.Node.Sim.Every(c.Now()+5, 1.0, func() {
			jump := timefmt.DurationFromSeconds(rng.Uniform(1e-3, 3e-3))
			if rng.Bool(0.5) {
				jump = -jump
			}
			evil.U.StepTo(evil.U.Now().Add(jump))
		})
		defer tick.Stop()
		c.RunUntil(c.Now() + 20)
		var ps metrics.Series
		start := c.Now()
		for t := start; t <= start+60; t += 1 {
			c.RunUntil(t)
			// Precision and containment over the six correct nodes only.
			lo, hi := 0.0, 0.0
			first := true
			for _, m := range c.Members[:6] {
				off, le, he := m.OffsetAndBounds()
				if le > 0 || he < 0 {
					violations++
				}
				if first {
					lo, hi, first = off, off, false
					continue
				}
				if off < lo {
					lo = off
				}
				if off > hi {
					hi = off
				}
			}
			ps.Add(hi - lo)
		}
		return ps.Max(), violations
	}

	pTol, vTol := run(2) // 7 nodes tolerate f=2; 1 actual traitor
	pNone, vNone := run(0)
	r.Table.AddRow("2 (tolerant)", metrics.Us(pTol), fmt.Sprint(vTol))
	r.Table.AddRow("0 (trusting)", metrics.Us(pNone), fmt.Sprint(vNone))
	r.Numbers["prec_tolerant"] = pTol
	r.Numbers["prec_trusting"] = pNone
	r.Numbers["violations_tolerant"] = float64(vTol)

	r.Claims["correct nodes keep low-µs precision with f=2"] = pTol < 6e-6
	r.Claims["containment holds for correct nodes with f=2"] = vTol == 0
	r.Claims["f=0 is visibly poisoned by the traitor"] = pNone > 5*pTol
	return r
}

// E13HardwareMeasuredPrecision evaluates precision the way the authors
// planned to with the SNU/snapshot features (paper §3.3: provisions "to
// facilitate an experimental evaluation of precision/accuracy"): a
// probe CSP is broadcast, every node's RECEIVE trigger samples its own
// clock within sub-µs of the same physical event (same last bit on the
// shared medium), and the spread of those hardware samples — minus the
// deterministic skew — measures precision *without access to simulation
// truth*. The experiment cross-checks this hardware estimate against
// the simulator's ground truth.
func E13HardwareMeasuredPrecision(seed uint64) Result {
	r := Result{
		ID:         "E13",
		Title:      "precision measured by the hardware itself (broadcast-triggered snapshots)",
		PaperClaim: "§3.3: SNU snapshots exist to evaluate precision/accuracy experimentally; the 16-node prototype evaluation would use them",
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	cfg := cluster.Defaults(8, seed)
	c := cluster.New(cfg)
	applyMeasuredDelays(c)

	// Collect every member's hardware rx stamp per probe round.
	type probeSample struct {
		node  int
		stamp timefmt.Stamp
	}
	samples := map[uint32][]probeSample{}
	for i, m := range c.Members {
		i := i
		m.Node.OnCSP(func(ar kernel.Arrival) {
			if ar.Pkt.Kind == csp.KindCSP && ar.Pkt.Dest == 0xBEE && ar.StampOK {
				samples[ar.Pkt.Round] = append(samples[ar.Pkt.Round], probeSample{node: i, stamp: ar.RxStamp})
				return
			}
			m.Sync.HandleArrival(ar)
		})
	}
	c.Start(c.Now() + 1)
	c.RunUntil(c.Now() + 20)

	// Probe sender: an extra station that only emits snapshot probes
	// (its packets carry the reserved node id 0xBEE and are ignored by
	// the synchronizers).
	prober := c.Members[0]
	var truth metrics.Series
	for k := 0; k < 40; k++ {
		k := k
		prober.Node.Sim.After(float64(k)*0.5+0.13, func() {
			p := csp.Packet{Kind: csp.KindCSP, Round: uint32(1000 + k)}
			p.Node = 0 // overwritten by SendCSP; Dest marks the probe
			probe := p
			probe.Dest = 0xBEE
			prober.Node.SendCSP(probe, network.Broadcast)
			truth.Add(c.Snapshot().Precision)
		})
	}
	c.RunUntil(c.Now() + 25)

	// Hardware estimate: per probe, spread of rx stamps across nodes
	// (sender excluded: it has no rx stamp of its own probe).
	var hw metrics.Series
	for _, ss := range samples {
		if len(ss) < len(c.Members)-1 {
			continue
		}
		lo, hi := ss[0].stamp, ss[0].stamp
		for _, s := range ss[1:] {
			if s.stamp < lo {
				lo = s.stamp
			}
			if s.stamp > hi {
				hi = s.stamp
			}
		}
		hw.Add(hi.Sub(lo).Seconds())
	}

	r.Table.Header = []string{"estimator", "mean [µs]", "max [µs]", "probes"}
	r.Table.AddRow("hardware (rx-stamp spread)", metrics.Us(hw.Mean()), metrics.Us(hw.Max()), fmt.Sprint(hw.N()))
	r.Table.AddRow("ground truth (SNU vs sim)", metrics.Us(truth.Mean()), metrics.Us(truth.Max()), fmt.Sprint(truth.N()))
	r.Numbers["hw_max"] = hw.Max()
	r.Numbers["truth_max"] = truth.Max()

	r.Claims["hardware estimator collected full rounds"] = hw.N() >= 20
	// The hardware estimate must agree with truth within the per-node
	// reception skew (DMA arbitration + synchronizer ≈ ±0.6 µs).
	agree := hw.Max()-truth.Max() > -1.5e-6 && hw.Max()-truth.Max() < 1.5e-6
	r.Claims["hardware estimate agrees with ground truth (±1.5 µs)"] = agree
	return r
}
