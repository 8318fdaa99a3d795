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

// FuzzFixpt checks the operators the UTCSU runs, Sub and AddScaled,
// against math/big on 2⁻⁶⁴-s integers: every result equals the exact
// one reduced to the signed 128-bit range. IsNegative must agree with
// the exact sign of a and of a−b, the comparison the duty timers make.
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
			{"Sub", a.Sub(b), new(big.Int).Sub(ua, ub)},
			{"AddScaled", a.AddScaled(augend, n), new(big.Int).Add(ua, prod)},
		} {
			w := wrap(c.want)
			if g := units(c.got); g.Cmp(w) != 0 {
				t.Errorf("%+v %s %+v (augend %d, n %d) = %+v = %v units, want %v", a, c.op, b, augend, n, c.got, g, w)
			}
			if got := c.got.IsNegative(); got != (w.Sign() < 0) {
				t.Errorf("%+v %s %+v (augend %d, n %d): IsNegative = %v, want %v", a, c.op, b, augend, n, got, w.Sign() < 0)
			}
		}
		if got := a.IsNegative(); got != (ua.Sign() < 0) {
			t.Errorf("%+v IsNegative = %v", a, got)
		}
	})
}
