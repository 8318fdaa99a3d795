package fixpt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromSecondsRoundTrip(t *testing.T) {
	cases := []float64{0, 1, 1.5, 0.25, 123.456789, 1e6, 255.999999999}
	for _, s := range cases {
		got := FromSeconds(s).Seconds()
		if math.Abs(got-s) > 1e-12*math.Max(1, s) {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestFromSecondsNegative(t *testing.T) {
	v := FromSeconds(-1.25)
	if v.Sec != -2 || v.Frac != 3<<62 {
		t.Errorf("FromSeconds(-1.25) = %+v, want Sec=-2 Frac=0.75*2^64", v)
	}
	if got := v.Seconds(); math.Abs(got+1.25) > 1e-12 {
		t.Errorf("Seconds() = %v, want -1.25", got)
	}
}

// TestAddSubInverse: Sub takes back exactly what AddScaled advanced,
// in either order (3 s of 10 MHz ticks).
func TestAddSubInverse(t *testing.T) {
	a := FromSeconds(17.375)
	augend := AugendForRate(10e6, 1.0)
	const n = 30_000_000
	b := Time{}.AddScaled(augend, n)
	if got := a.AddScaled(augend, n).Sub(b); got != a {
		t.Errorf("a+b-b = %+v, want %+v", got, a)
	}
	if got := a.Sub(b).AddScaled(augend, n); got != a {
		t.Errorf("a-b+b = %+v, want %+v", got, a)
	}
}

func TestAddCarry(t *testing.T) {
	a := Time{Sec: 0, Frac: ^uint64(0)} // just below 1 s
	got := a.AddScaled(1, 1)
	if got.Sec != 1 || got.Frac != 0 {
		t.Errorf("carry add = %+v, want {1 0}", got)
	}
}

func TestSubBorrow(t *testing.T) {
	a := Time{Sec: 1, Frac: 0}
	b := Time{Sec: 0, Frac: 1}
	got := a.Sub(b)
	if got.Sec != 0 || got.Frac != ^uint64(0) {
		t.Errorf("borrow sub = %+v, want {0 max}", got)
	}
}

// TestCmp: the sign of a−b orders two times, the comparison the duty
// timers make with Sub and IsNegative.
func TestCmp(t *testing.T) {
	a := FromSeconds(1.5)
	b := FromSeconds(1.75)
	if !a.Sub(b).IsNegative() || b.Sub(a).IsNegative() || a.Sub(a).IsNegative() {
		t.Error("Sub/IsNegative ordering wrong")
	}
}

func TestAddScaledMatchesLoop(t *testing.T) {
	augend := AugendForRate(10e6, 1.0) // 100 ns per tick
	base := FromSeconds(5)
	want := base
	for i := 0; i < 1000; i++ {
		want = want.AddScaled(augend, 1)
	}
	got := base.AddScaled(augend, 1000)
	if got != want {
		t.Errorf("AddScaled = %+v, loop = %+v", got, want)
	}
	if back := got.Sub(Time{}.AddScaled(augend, 1000)); back != base {
		t.Errorf("Sub inverse = %+v, want %+v", back, base)
	}
}

func TestAddScaledCrossesSeconds(t *testing.T) {
	// 20 MHz nominal augend for 10 s worth of ticks: 2e8 ticks.
	augend := AugendForRate(20e6, 1.0)
	got := Time{}.AddScaled(augend, 200_000_000)
	// Augend is truncated to 2^-51 s, so the result is slightly below 10 s
	// but within 2e8 * 2^-51 s ≈ 89 ns.
	s := got.Seconds()
	if s > 10 || s < 10-1e-7 {
		t.Errorf("10s of ticks = %v s", s)
	}
}

func TestAugendForRateNominal(t *testing.T) {
	for _, f := range []float64{1e6, 10e6, 14e6, 20e6} {
		a := AugendForRate(f, 1.0)
		if a%AugendUnit != 0 {
			t.Errorf("augend at %v Hz not multiple of 2^-51", f)
		}
		r := float64(a) / unitsPerSecondF * f
		// Truncation to 2^-51 s at f Hz gives rate error < f * 2^-51.
		if math.Abs(r-1.0) > f/math.Exp2(51) {
			t.Errorf("rate for augend at %v Hz = %v", f, r)
		}
	}
}

func TestRateAdjustmentGranularity(t *testing.T) {
	// Paper §3.3: "fine-grained rate adjustable in steps of about 10 ns/s".
	// One augend step of 2^-51 s at 20 MHz = 20e6 * 2^-51 ≈ 8.9 ns/s.
	f := 20e6
	step := f / math.Exp2(51)
	if step < 5e-9 || step > 15e-9 {
		t.Errorf("rate step at 20 MHz = %v, want ~10 ns/s", step)
	}
}

// Property: tick runs add commutatively and associatively: two clock
// segments give the same value in either order, and one run of n+m
// ticks equals a run of n then m.
func TestQuickAddProperties(t *testing.T) {
	comm := func(s int32, f uint64, a, b uint32, n, m uint32) bool {
		x := Time{Sec: int64(s), Frac: f}
		return x.AddScaled(uint64(a), uint64(n)).AddScaled(uint64(b), uint64(m)) ==
			x.AddScaled(uint64(b), uint64(m)).AddScaled(uint64(a), uint64(n))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(s int32, f uint64, a uint64, n, m uint32) bool {
		x := Time{Sec: int64(s), Frac: f}
		return x.AddScaled(a, uint64(n)).AddScaled(a, uint64(m)) == x.AddScaled(a, uint64(n)+uint64(m))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sub is the inverse of AddScaled.
func TestQuickSubInverse(t *testing.T) {
	f := func(s int32, fs uint64, a uint64, n uint32) bool {
		x := Time{Sec: int64(s), Frac: fs}
		y := Time{}.AddScaled(a, uint64(n))
		return x.AddScaled(a, uint64(n)).Sub(y) == x && x.Sub(y).AddScaled(a, uint64(n)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddScaled(a,n) == n applications of Add({0,a}) for small n.
func TestQuickAddScaled(t *testing.T) {
	f := func(aRaw uint32, n uint8) bool {
		augend := uint64(aRaw) << 10
		x := FromSeconds(3)
		want := x
		for i := 0; i < int(n); i++ {
			want = want.AddScaled(augend, 1)
		}
		return x.AddScaled(augend, uint64(n)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the sign of x−y orders Times as (Sec, Frac) pairs, the
// comparison the duty timers make with Sub and IsNegative.
func TestQuickCmpOrder(t *testing.T) {
	f := func(a, b int32, fa, fb uint64) bool {
		x := Time{Sec: int64(a), Frac: fa}
		y := Time{Sec: int64(b), Frac: fb}
		less := x.Sec < y.Sec || x.Sec == y.Sec && x.Frac < y.Frac
		return x.Sub(y).IsNegative() == less
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddScaled(b *testing.B) {
	augend := AugendForRate(20e6, 1.0)
	t0 := FromSeconds(1)
	var sink Time
	for i := 0; i < b.N; i++ {
		sink = t0.AddScaled(augend, uint64(i))
	}
	_ = sink
}
