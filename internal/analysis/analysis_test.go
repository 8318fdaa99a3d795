package analysis

import (
	"math"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/metrics"
)

func TestLundeliusLynch(t *testing.T) {
	if got := LundeliusLynchLowerBound(1e-6, 2); math.Abs(got-0.5e-6) > 1e-12 {
		t.Errorf("LL(1µs, 2) = %v", got)
	}
	if got := LundeliusLynchLowerBound(1e-6, 16); got <= 0.9e-6 || got >= 1e-6 {
		t.Errorf("LL(1µs, 16) = %v", got)
	}
	if LundeliusLynchLowerBound(1e-6, 1) != 0 {
		t.Error("single node has no lower bound")
	}
	// Monotone in n.
	if LundeliusLynchLowerBound(1e-6, 4) >= LundeliusLynchLowerBound(1e-6, 8) {
		t.Error("bound should grow with n")
	}
}

func TestGranularityImpairment(t *testing.T) {
	// The paper's §5 numbers: G = u < 70 ns gives a bound below ~1 µs.
	g := 1.0 / (1 << 24)
	u := AdderClockRateUncertainty(14.5e6)
	if b := GranularityImpairment(g, u); b >= 1e-6 {
		t.Errorf("bound at 14.5 MHz = %v, paper says <1 µs above 14 MHz", b)
	}
	u = AdderClockRateUncertainty(10e6)
	if b := GranularityImpairment(g, u); b <= 1e-6 {
		t.Errorf("bound at 10 MHz = %v, should still exceed 1 µs", b)
	}
	// CSU-class: G = u = 1 µs → 14 µs.
	if b := GranularityImpairment(1e-6, 1e-6); math.Abs(b-14e-6) > 1e-12 {
		t.Errorf("CSU bound = %v, want 14 µs", b)
	}
}

func TestBudgetDominatesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run")
	}
	// The worst-case budget must dominate the measured worst case of the
	// default prototype, while staying within ~20x of it (a budget that
	// is orders of magnitude loose would be useless).
	c := cluster.New(cluster.Defaults(8, 55))
	b := c.MeasureDelay(0, 1, 12)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(b)
	}
	c.Start(c.Now() + 1)
	c.RunUntil(c.Now() + 20)
	var prec metrics.Series
	start := c.Now()
	for x := start; x <= start+60; x += 0.7 {
		c.RunUntil(x)
		prec.Add(c.Snapshot().Precision)
	}
	budget := PrototypeBudget()
	budget.DelayWindowS = (b.Max - b.Min).Seconds()
	bound := budget.WorstCasePrecision()
	if prec.Max() > bound {
		t.Errorf("measured %v exceeds budget %v", prec.Max(), bound)
	}
	if bound > 20*prec.Max() {
		t.Errorf("budget %v uselessly loose vs measured %v", bound, prec.Max())
	}
}

func TestBudgetTermSensitivity(t *testing.T) {
	b := PrototypeBudget()
	base := b.WorstCasePrecision()
	// Each term strictly increases the bound.
	for _, mut := range []func(*Budget){
		func(x *Budget) { x.EpsS *= 2 },
		func(x *Budget) { x.GranuleS *= 2 },
		func(x *Budget) { x.RateUncS *= 2 },
		func(x *Budget) { x.RhoPPB *= 2 },
		func(x *Budget) { x.RoundS *= 2 },
		func(x *Budget) { x.DelayWindowS *= 2 },
	} {
		x := b
		mut(&x)
		if x.WorstCasePrecision() <= base {
			t.Errorf("term mutation did not grow the bound")
		}
	}
}
