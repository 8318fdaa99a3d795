package fixpt

import (
	"math/big"
	"testing"
)

var (
	two64  = new(big.Int).Lsh(big.NewInt(1), 64)
	two127 = new(big.Int).Lsh(big.NewInt(1), 127)
	two128 = new(big.Int).Lsh(big.NewInt(1), 128)
)

// units returns t as an integer count of 2⁻⁶⁴ s: Sec·2⁶⁴ + Frac.
func units(t Time) *big.Int {
	v := new(big.Int).Mul(big.NewInt(t.Sec), two64)
	return v.Add(v, new(big.Int).SetUint64(t.Frac))
}

// wrap reduces an exact result to the signed 128-bit range Time holds,
// the two's-complement wrap its int64 Sec word gives on overflow.
func wrap(v *big.Int) *big.Int {
	v = new(big.Int).Add(v, two127)
	v.Mod(v, two128)
	return v.Sub(v, two127)
}

// FuzzFixpt checks Add, Sub, Neg, Cmp, AddScaled and SubScaled against
// math/big on 2⁻⁶⁴-s integers: every result equals the exact one
// reduced to the signed 128-bit range, and Cmp, Less, IsNegative and
// IsZero agree with the exact values.
func FuzzFixpt(f *testing.F) {
	f.Fuzz(func(t *testing.T, aSec int64, aFrac uint64, bSec int64, bFrac uint64, augend, n uint64) {
		a, b := FromSecFrac(aSec, aFrac), FromSecFrac(bSec, bFrac)
		ua, ub := units(a), units(b)
		prod := new(big.Int).Mul(new(big.Int).SetUint64(augend), new(big.Int).SetUint64(n))
		for _, c := range []struct {
			op   string
			got  Time
			want *big.Int
		}{
			{"Add", a.Add(b), new(big.Int).Add(ua, ub)},
			{"Sub", a.Sub(b), new(big.Int).Sub(ua, ub)},
			{"Neg", a.Neg(), new(big.Int).Neg(ua)},
			{"AddScaled", a.AddScaled(augend, n), new(big.Int).Add(ua, prod)},
			{"SubScaled", a.SubScaled(augend, n), new(big.Int).Sub(ua, prod)},
		} {
			if g, w := units(c.got), wrap(c.want); g.Cmp(w) != 0 {
				t.Errorf("%+v %s %+v (augend %d, n %d) = %+v = %v units, want %v", a, c.op, b, augend, n, c.got, g, w)
			}
		}
		want := ua.Cmp(ub)
		if got := a.Cmp(b); got != want {
			t.Errorf("%+v Cmp %+v = %d, want %d", a, b, got, want)
		}
		if got := a.Less(b); got != (want < 0) {
			t.Errorf("%+v Less %+v = %v, want %v", a, b, got, want < 0)
		}
		if got := a.IsNegative(); got != (ua.Sign() < 0) {
			t.Errorf("%+v IsNegative = %v", a, got)
		}
		if got := a.IsZero(); got != (ua.Sign() == 0) {
			t.Errorf("%+v IsZero = %v", a, got)
		}
	})
}
