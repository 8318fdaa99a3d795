// Package fixpt provides exact 128-bit fixed-point time arithmetic.
//
// A Time is a signed quantity of seconds with a 64-bit binary fraction,
// i.e. an integer count of 2^-64 s units held in two machine words. The
// UTCSU adder-based clock (paper §3.3) sums an augend of granularity
// 2^-51 s on every oscillator tick; all of its register arithmetic is
// reproduced here without rounding so that clock-granularity and
// rate-adjustment-step effects are bit-exact in the simulation.
package fixpt

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a fixed-point time value: Sec seconds plus Frac/2^64 seconds.
// Negative values use two's-complement style representation: the value is
// Sec + Frac/2^64 where Sec may be negative and Frac is always the
// non-negative fractional part scaled by 2^64. The zero value is time zero.
type Time struct {
	Sec  int64  // whole seconds (floor)
	Frac uint64 // fractional part in 2^-64 s units
}

// Common unit constants expressed in 2^-64 s fraction units.
const (
	// UnitsPerSecond is 2^64 expressed as a float for conversions.
	unitsPerSecondF = 18446744073709551616.0 // 2^64

	// Augend values are multiples of 2^-51 s (paper §3.3: "a proper augend
	// value (in multiples of 2^-51 s ≈ 0.44 fs)"). 2^-51 s = 2^13 units.
	AugendUnit uint64 = 1 << 13
)

// FromSeconds converts a float64 number of seconds to a Time, rounding to
// the nearest representable unit.
func FromSeconds(s float64) Time {
	sec := math.Floor(s)
	frac := s - sec
	fu := frac * unitsPerSecondF
	f := uint64(fu)
	// Guard against frac rounding up to exactly 1.0.
	if fu >= unitsPerSecondF {
		sec++
		f = 0
	}
	return Time{Sec: int64(sec), Frac: f}
}

// Seconds converts t to float64 seconds (lossy beyond 53 bits).
func (t Time) Seconds() float64 {
	return float64(t.Sec) + float64(t.Frac)/unitsPerSecondF
}

// FromSecFrac builds a Time from explicit parts.
func FromSecFrac(sec int64, frac uint64) Time { return Time{Sec: sec, Frac: frac} }

// Sub returns t - u.
func (t Time) Sub(u Time) Time {
	frac, borrow := bits.Sub64(t.Frac, u.Frac, 0)
	return Time{Sec: t.Sec - u.Sec - int64(borrow), Frac: frac}
}

// IsNegative reports whether t represents a value below zero.
func (t Time) IsNegative() bool { return t.Sec < 0 }

// AddScaled returns t + augend*n computed exactly, where augend is a
// per-tick increment in 2^-64 s units and n is a tick count. This is the
// core of the adder-based clock: the 128-bit product never overflows for
// any realistic augend (≈9.2e11 units at 50 ns) and tick count (<2^63).
func (t Time) AddScaled(augend uint64, n uint64) Time {
	hi, lo := bits.Mul64(augend, n)
	frac, carry := bits.Add64(t.Frac, lo, 0)
	return Time{Sec: t.Sec + int64(hi) + int64(carry), Frac: frac}
}

// TruncAugend rounds a raw per-tick increment in 2^-64 s units down to the
// 2^-51 s augend granularity of the UTCSU STEP register.
func TruncAugend(units uint64) uint64 { return units &^ (AugendUnit - 1) }

// String formats t with nanosecond resolution for diagnostics.
func (t Time) String() string {
	s := t.Seconds()
	return fmt.Sprintf("%.9fs", s)
}

// AugendForRate returns the augend (in 2^-64 s units, truncated to the
// 2^-51 s STEP granularity) that makes a clock driven at freqHz advance at
// `rate` seconds of clock time per second of oscillator-counted time.
// rate==1.0 is nominal.
func AugendForRate(freqHz float64, rate float64) uint64 {
	perTick := rate / freqHz // seconds of clock advance per tick
	u := perTick * unitsPerSecondF
	return TruncAugend(uint64(u))
}
