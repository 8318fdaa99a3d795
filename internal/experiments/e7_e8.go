package experiments

import (
	"math"

	"ntisim/internal/baseline"
	"ntisim/internal/clocksync"
	"ntisim/internal/cluster"
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
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
	c := cluster.New(cfg)
	applyMeasuredDelays(c)
	c.Start(c.Now() + 1)
	_, acc, _ := precisionWindow(c, c.Now()+60, 120, 1)
	r.Table.AddRow("NTI (hardware)", "10 Mb/s shared LAN", metrics.Ms(acc.Max()))

	r.Numbers["ntp_sym"] = sym
	r.Numbers["ntp_asym"] = asym
	r.Numbers["ntp_sym_bias"] = symBias
	r.Numbers["ntp_asym_bias"] = asymBias
	r.Numbers["nti_lan"] = acc.Max()
	r.Claims["NTP lands in the ms..10ms regime"] = sym > 100e-6 && sym < 100e-3
	// Asymmetric queueing biases NTP's offset estimator systematically
	// (half the one-way delay difference) — visible in the signed mean,
	// which a deterministic LAN with hardware stamping cannot exhibit.
	r.Claims["asymmetry biases NTP by ≥ 0.4 ms"] = asymBias-symBias > 0.4e-3
	r.Claims["NTI ≥ 100x better than NTP"] = sym > 100*acc.Max()
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
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"clock device", "G [µs]", "u [µs/s]", "4G+10u [µs]", "worst prec [µs]"}
	run := func(counter bool) (prec float64, g, u float64) {
		cfg := cluster.Defaults(4, seed)
		cfg.Sync.RateSync = true // exercise the rate-step quantum u
		if counter {
			cfg.ClockFactory = func(uu *utcsu.UTCSU) clocksync.Clock {
				return baseline.NewCounterClock(uu)
			}
		}
		c := cluster.New(cfg)
		applyMeasuredDelays(c)
		c.Start(c.Now() + 1)
		p, _, _ := precisionWindow(c, c.Now()+20, 60, 0.7)
		var clk clocksync.Clock = clocksync.UTCSUClock{UTCSU: c.Members[0].U}
		if counter {
			clk = baseline.NewCounterClock(c.Members[0].U)
		}
		return p.Max(), clk.GranuleSeconds(), clk.RateStepPPB() * 1e-9
	}
	pAdder, gA, uA := run(false)
	pCounter, gC, uC := run(true)
	// u is per second, over the 1 s round: the §5 worst-case impairment.
	boundAdder := granularityImpairment(gA, uA)
	boundCounter := granularityImpairment(gC, uC)
	r.Table.AddRow("adder (UTCSU)", metrics.Us(gA), metrics.Us(uA), metrics.Us(boundAdder), metrics.Us(pAdder))
	r.Table.AddRow("counter (CSU-class)", metrics.Us(gC), metrics.Us(uC), metrics.Us(boundCounter), metrics.Us(pCounter))
	r.Numbers["prec_adder"] = pAdder
	r.Numbers["prec_counter"] = pCounter
	r.Numbers["bound_adder"] = boundAdder
	r.Numbers["bound_counter"] = boundCounter
	r.Claims["adder clock strictly more precise (measured)"] = pAdder < pCounter
	// The paper's §5 point verbatim: the CSU-class worst-case impairment
	// alone already exceeds 1 µs, so "a few µs worst case precision" is
	// only legitimate when granularity effects are ignored.
	r.Claims["counter impairment bound 4G+10u forbids sub-µs"] = boundCounter > 1e-6
	r.Claims["adder impairment bound permits sub-µs"] = boundAdder < 1e-6
	r.Claims["adder clock reaches low-µs precision"] = pAdder < 4e-6
	r.Notes = append(r.Notes,
		"measured precision under the typical workload sits below the worst-case bound for both devices; the bound gap (50x) is the design argument")
	return r
}
