package experiments

import (
	"math"

	"ntisim/internal/baseline"
	"ntisim/internal/clocksync"
	"ntisim/internal/cluster"
	"ntisim/internal/harness"
	"ntisim/internal/metrics"
	"ntisim/internal/network"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/utcsu"
)

// E7WANvsLAN reproduces the §1 system-class comparison: NTP-style
// software synchronization over a class (III) long-haul path lands in
// the ~10 ms regime [Tro94], while the NTI on a class (II) LAN delivers
// µs — four orders of magnitude.
func E7WANvsLAN(seed uint64) Result {
	r := Result{
		ID:         "E7",
		Title:      "class III (NTP over WAN) vs class II (NTI on LAN) accuracy",
		PaperClaim: "§1: NTP reports ~10 ms maximum deviations under reasonable conditions; NTI targets 1 µs on LANs",
	}
	r.Table.Header = []string{"system", "path", "worst |C-t| [ms]"}

	ntpRun := func(asym float64, label string) (worst, bias float64) {
		s := sim.New(seed)
		o := oscillator.New(s, oscillator.TCXO(10e6), "ntp"+label)
		u := utcsu.New(s, o)
		path := network.NewWANPath(s, asym, "ntp"+label)
		c := baseline.NewNTPClient(s, u, path)
		c.Start()
		s.RunUntil(600)
		var sum float64
		n := 0
		for x := 600.0; x <= 2400; x += 10 {
			s.RunUntil(x)
			off := c.OffsetSeconds()
			worst = math.Max(worst, math.Abs(off))
			sum += off
			n++
		}
		return worst, sum / float64(n)
	}
	sym, symBias := ntpRun(1, "sym")
	asym, asymBias := ntpRun(4, "asym")
	r.Table.AddRow("NTP (software)", "3-hop WAN, symmetric", metrics.Ms(sym))
	r.Table.AddRow("NTP (software)", "3-hop WAN, 4x asymmetric", metrics.Ms(asym))

	// LAN with NTI + GPS anchor: the class-II target system.
	cfg := cluster.Defaults(8, seed)
	cfg.GPS = mapGPS(0, 1)
	acc := runCells(harness.Spec{Name: "E7", Base: cfg,
		DelayProbes: delayProbes, WarmupS: 60, WindowS: 120, SampleEveryS: 1})[0].Accuracy.Max
	r.Table.AddRow("NTI (hardware)", "10 Mb/s shared LAN", metrics.Ms(acc))

	r.above(Shape, "NTI ≥ 100x better than NTP", sym, 100*acc)
	r.check(Statistical, "NTP lands in the ms..10ms regime", sym > 100e-6 && sym < 100e-3)
	// Asymmetric queueing biases NTP's offset estimator systematically
	// (half the one-way delay difference) — visible in the signed mean,
	// which a deterministic LAN with hardware stamping cannot exhibit.
	r.above(Statistical, "asymmetry biases NTP by ≥ 0.4 ms", asymBias-symBias, 0.4e-3)
	return r
}

// E8AdderVsCounter reproduces the §5 design ablation: the UTCSU's
// adder-based clock (rate steps of fosc·2⁻⁵¹ ≈ 9 ns/s, continuous
// amortization) versus a CSU/[KKMS95]-class counter-based device
// (G ≈ 1 µs readings, ~1 µs/s rate steps, stepwise state corrections),
// running the identical synchronization algorithm.
func E8AdderVsCounter(seed uint64) Result {
	r := Result{
		ID:         "E8",
		Title:      "adder-based UTCSU clock vs counter-based (CSU-class) clock",
		PaperClaim: "§5: granularity effects ignored by [KKMS95]; 4G+10u with G=1µs forbids 1 µs precision; adder-based design surpasses counter-based",
	}
	r.Table.Header = []string{"clock device", "G [µs]", "u [µs/s]", "4G+10u [µs]", "worst prec [µs]"}
	cfg := cluster.Defaults(4, seed)
	cfg.Sync.RateSync = true // exercise the rate-step quantum u
	cells := runCells(harness.Spec{Name: "E8", Base: cfg,
		Points: []harness.Point{{Label: "adder"}, {Label: "counter", Mutate: func(c *cluster.Config) {
			c.ClockFactory = func(uu *utcsu.UTCSU) clocksync.Clock { return baseline.NewCounterClock(uu) }
		}}},
		DelayProbes: delayProbes, WarmupS: 20, WindowS: 60, SampleEveryS: 0.7})
	pAdder, pCounter := cells[0].Precision.Max, cells[1].Precision.Max
	// G and u are device constants, read from a UTCSU at the cluster's
	// pacing frequency.
	s := sim.New(seed)
	u := utcsu.New(s, oscillator.New(s, oscillator.TCXO(cfg.OscHz), "e8"))
	adder, counter := clocksync.UTCSUClock{UTCSU: u}, baseline.NewCounterClock(u)
	gA, uA := adder.GranuleSeconds(), adder.RateStepPPB()*1e-9
	gC, uC := counter.GranuleSeconds(), counter.RateStepPPB()*1e-9
	// u is per second, over the 1 s round: the §5 worst-case impairment.
	boundAdder := granularityImpairment(gA, uA)
	boundCounter := granularityImpairment(gC, uC)
	r.Table.AddRow("adder (UTCSU)", metrics.Us(gA), metrics.Us(uA), metrics.Us(boundAdder), metrics.Us(pAdder))
	r.Table.AddRow("counter (CSU-class)", metrics.Us(gC), metrics.Us(uC), metrics.Us(boundCounter), metrics.Us(pCounter))
	r.below(Statistical, "adder clock reaches low-µs precision", pAdder, 4e-6)
	r.below(Shape, "adder clock strictly more precise (measured)", pAdder, pCounter)
	// The paper's §5 point verbatim: the CSU-class worst-case impairment
	// alone already exceeds 1 µs, so "a few µs worst case precision" is
	// only legitimate when granularity effects are ignored.
	r.below(Invariant, "adder impairment bound permits sub-µs", boundAdder, 1e-6)
	r.above(Invariant, "counter impairment bound 4G+10u forbids sub-µs", boundCounter, 1e-6)
	r.Notes = append(r.Notes,
		"measured precision under the typical workload sits below the worst-case bound for both devices; the bound gap (50x) is the design argument")
	return r
}
