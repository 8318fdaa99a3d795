package utcsu

import (
	"ntisim/internal/fixpt"
	"ntisim/internal/timefmt"
)

// The ACU (Accuracy Unit) holds the accuracies α⁻ and α⁺ in two more
// adder-based "clocks" of the register timeline (paper §3.3).
//
// Each accumulator grows at a programmable deterioration rate (the a
// priori drift bound, loaded by the rate-synchronization layer) per
// oscillator tick. During continuous amortization the clock value moves
// through its own accuracy interval, so the side the clock moves towards
// shrinks and the other grows by the amortization rate (see next) —
// with the hardware's zero-masking: a shrinking accuracy saturates at
// zero rather than going negative. Register reads saturate at the
// 16-bit width rather than wrapping.

// satUnits caps the internal accumulator a little above the register
// saturation point so the value cannot overflow during long runs.
const satUnits = (int64(timefmt.AlphaMax) + 1) << 40

// SetDriftBoundPPB programs the deterioration rates: the accuracy grows
// by the drift bound per unit of elapsed time, keeping t ∈ A(t) valid as
// the free-running clock drifts (paper §2: "drift compensation must also
// be performed continuously by the local interval clock").
func (u *UTCSU) SetDriftBoundPPB(minusPPB, plusPPB int64) {
	u.detMinus = fixpt.AugendForRate(u.osc.NominalHz(), float64(minusPPB)*1e-9)
	u.detPlus = fixpt.AugendForRate(u.osc.NominalHz(), float64(plusPPB)*1e-9)
	u.place(u.next())
}

// SetAlpha loads both accuracy registers atomically (in conjunction with
// a clock adjustment, this is the interval (re)initialization).
func (u *UTCSU) SetAlpha(minus, plus timefmt.Duration) {
	s := u.next()
	s.alphaMinus = int64(clampDur(minus)) << 40
	s.alphaPlus = int64(clampDur(plus)) << 40
	u.place(s)
}

// Alpha returns the current saturated register values.
func (u *UTCSU) Alpha() (minus, plus timefmt.Alpha) {
	_, minus, plus = u.read(u.tick())
	return minus, plus
}

func clampDur(d timefmt.Duration) timefmt.Duration {
	return min(max(d, 0), timefmt.Duration(timefmt.AlphaMax))
}

// accumulate returns base + rate·dn for an accumulator base in
// [0, satUnits], saturating at satUnits and zero-masked at 0, checked
// before the multiply can overflow.
func accumulate(base, rate, dn int64) int64 {
	if rate > 0 && dn > (satUnits-base)/rate {
		return satUnits
	}
	if rate < 0 && dn > base/(-rate) {
		return 0
	}
	return base + rate*dn
}

// unitsToAlpha returns the saturated 16-bit register value of an
// accumulator in [0, satUnits].
func unitsToAlpha(v int64) timefmt.Alpha {
	return timefmt.Alpha(min(v>>40, int64(timefmt.AlphaMax)))
}
