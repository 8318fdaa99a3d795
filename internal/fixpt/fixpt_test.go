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

func TestAddSubInverse(t *testing.T) {
	a := FromSeconds(17.375)
	b := FromSeconds(3.0625)
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("a+b-b = %+v, want %+v", got, a)
	}
	if got := a.Sub(b).Add(b); got != a {
		t.Errorf("a-b+b = %+v, want %+v", got, a)
	}
}

func TestAddCarry(t *testing.T) {
	a := Time{Sec: 0, Frac: ^uint64(0)} // just below 1 s
	b := Time{Sec: 0, Frac: 1}
	got := a.Add(b)
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

func TestNeg(t *testing.T) {
	a := FromSeconds(2.5)
	if got := a.Neg().Add(a); !got.IsZero() {
		t.Errorf("-a + a = %+v, want zero", got)
	}
	if !a.Neg().IsNegative() {
		t.Error("Neg(positive) should be negative")
	}
}

func TestCmp(t *testing.T) {
	a := FromSeconds(1.5)
	b := FromSeconds(1.75)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less wrong")
	}
}

func TestAddScaledMatchesLoop(t *testing.T) {
	augend := AugendForRate(10e6, 1.0) // 100 ns per tick
	base := FromSeconds(5)
	want := base
	for i := 0; i < 1000; i++ {
		want = want.Add(Time{Frac: augend})
	}
	got := base.AddScaled(augend, 1000)
	if got != want {
		t.Errorf("AddScaled = %+v, loop = %+v", got, want)
	}
	if back := got.SubScaled(augend, 1000); back != base {
		t.Errorf("SubScaled inverse = %+v, want %+v", back, base)
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

// Property: Add is associative and commutative over random values.
func TestQuickAddProperties(t *testing.T) {
	comm := func(a, b int64, fa, fb uint64) bool {
		x := Time{Sec: a % (1 << 40), Frac: fa}
		y := Time{Sec: b % (1 << 40), Frac: fb}
		return x.Add(y) == y.Add(x)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c int32, fa, fb, fc uint64) bool {
		x := Time{Sec: int64(a), Frac: fa}
		y := Time{Sec: int64(b), Frac: fb}
		z := Time{Sec: int64(c), Frac: fc}
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sub is the inverse of Add.
func TestQuickSubInverse(t *testing.T) {
	f := func(a, b int32, fa, fb uint64) bool {
		x := Time{Sec: int64(a), Frac: fa}
		y := Time{Sec: int64(b), Frac: fb}
		return x.Add(y).Sub(y) == x
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
			want = want.Add(Time{Frac: augend})
		}
		return x.AddScaled(augend, uint64(n)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Cmp defines a total order consistent with Seconds().
func TestQuickCmpOrder(t *testing.T) {
	f := func(a, b int32, fa, fb uint64) bool {
		x := Time{Sec: int64(a), Frac: fa}
		y := Time{Sec: int64(b), Frac: fb}
		c := x.Cmp(y)
		if x == y {
			return c == 0
		}
		d := x.Sub(y)
		if c < 0 {
			return d.IsNegative()
		}
		return !d.IsNegative()
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
