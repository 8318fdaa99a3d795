package baseline

import (
	"math"
	"testing"

	"ntisim/internal/network"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

func mkUTCSU(s *sim.Simulator, label string) *utcsu.UTCSU {
	o := oscillator.New(s, oscillator.TCXO(10e6), label)
	return utcsu.New(s, o)
}

func TestCounterClockGranularity(t *testing.T) {
	s := sim.New(1)
	c := NewCounterClock(mkUTCSU(s, "a"))
	s.RunUntil(1.2345)
	v := c.Now()
	if v%17 != 0 {
		t.Errorf("reading %v not on the coarse grid", v)
	}
	if g := c.GranuleSeconds(); g < 0.9e-6 || g > 1.2e-6 {
		t.Errorf("granule = %v, want ~1µs", g)
	}
	// Coarse reads lose up to G versus the underlying clock.
	fine := c.u.Now()
	if d := fine.Sub(v); d < 0 || d > 17 {
		t.Errorf("quantization error %v granules", d)
	}
}

func TestCounterClockRateQuantization(t *testing.T) {
	s := sim.New(2)
	c := NewCounterClock(mkUTCSU(s, "a"))
	c.SetRatePPB(1499)
	if c.RatePPB() != 1000 {
		t.Errorf("rate %v, want quantized to 1000", c.RatePPB())
	}
	c.SetRatePPB(-2500)
	if c.RatePPB() != -2000 {
		t.Errorf("rate %v, want -2000", c.RatePPB())
	}
	if c.RateStepPPB() != 1000 {
		t.Errorf("rate step %v", c.RateStepPPB())
	}
	s.RunUntil(0.1)
}

func TestCounterClockRateStepVsUTCSU(t *testing.T) {
	// The whole point of E8: the adder-based UTCSU adjusts ~100x finer.
	s := sim.New(3)
	u := mkUTCSU(s, "a")
	c := NewCounterClock(u)
	if c.RateStepPPB() < 50*u.RateStepPPB() {
		t.Errorf("counter step %v should dwarf adder step %v", c.RateStepPPB(), u.RateStepPPB())
	}
}

func TestCounterClockAmortizeIsStep(t *testing.T) {
	s := sim.New(4)
	c := NewCounterClock(mkUTCSU(s, "a"))
	s.RunUntil(1)
	before := c.u.Now()
	c.Amortize(timefmt.DurationFromSeconds(50e-6), 5000)
	s.RunUntil(1.0001) // a blink later — the step is already complete
	got := c.u.Now().Sub(before).Seconds()
	if math.Abs(got-(0.0001+50e-6)) > 5e-6 {
		t.Errorf("counter 'amortization' advanced %v, want instant step", got)
	}
	// And the step is visible as non-monotonic rate, unlike the UTCSU.
	if on, _ := c.u.Amortizing(); on {
		t.Error("counter clock must not use continuous amortization")
	}
}

func TestCounterClockAlphaPassThrough(t *testing.T) {
	s := sim.New(5)
	c := NewCounterClock(mkUTCSU(s, "a"))
	c.SetAlpha(timefmt.DurationFromSeconds(10e-6), timefmt.DurationFromSeconds(10e-6))
	s.RunUntil(0.01)
	am, ap := c.Alpha()
	// Coarser than the raw registers by the read granule.
	if am.Duration().Seconds() < 10e-6 || ap.Duration().Seconds() < 10e-6 {
		t.Errorf("alpha lost width: %v/%v", am, ap)
	}
}

func TestCounterClockDutyTimer(t *testing.T) {
	s := sim.New(6)
	c := NewCounterClock(mkUTCSU(s, "a"))
	fired := false
	c.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(1)), func() { fired = true })
	s.RunUntil(2)
	if !fired {
		t.Error("duty timer dead")
	}
}

func TestNTPConvergesToMsRange(t *testing.T) {
	s := sim.New(7)
	u := mkUTCSU(s, "ntp")
	path := network.NewWANPath(s, 1, "ntp")
	c := NewNTPClient(s, u, path)
	c.Start()
	s.RunUntil(600)
	var worst float64
	for x := 600.0; x <= 900; x += 10 {
		s.RunUntil(x)
		worst = math.Max(worst, math.Abs(c.OffsetSeconds()))
	}
	// NTP over a queueing WAN: ms-range, definitely not µs.
	if worst > 100e-3 {
		t.Errorf("NTP worst offset %v, want within ~10ms-range", worst)
	}
	if worst < 1e-6 {
		t.Errorf("NTP offset %v implausibly good for a WAN", worst)
	}
}

func TestNTPAsymmetryBias(t *testing.T) {
	// Asymmetric queueing biases NTP's offset estimate by ~half the
	// asymmetry — the structural failure mode deterministic LANs with
	// hardware stamping do not have.
	run := func(asym float64) float64 {
		s := sim.New(8)
		u := mkUTCSU(s, "ntp")
		path := network.NewWANPath(s, asym, "ntp")
		c := NewNTPClient(s, u, path)
		c.Start()
		s.RunUntil(300)
		var sum float64
		n := 0
		for x := 300.0; x <= 900; x += 10 {
			s.RunUntil(x)
			sum += c.OffsetSeconds()
			n++
		}
		return sum / float64(n) // signed mean: exposes systematic bias
	}
	sym := run(1)
	skew := run(4)
	if math.Abs(skew) < 2*math.Abs(sym) || math.Abs(skew) < 0.5e-3 {
		t.Errorf("asymmetry bias not visible: sym mean %v, asym mean %v", sym, skew)
	}
}
