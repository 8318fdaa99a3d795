package utcsu

import (
	"fmt"

	"ntisim/internal/fixpt"
	"ntisim/internal/timefmt"
)

// acu is the Accuracy Unit: two adder-based "clocks" holding and
// automatically deteriorating the accuracies α⁻ and α⁺ (paper §3.3).
//
// Each side accumulates at a programmable deterioration rate (the a
// priori drift bound, loaded by the rate-synchronization layer) per
// oscillator tick. During continuous amortization the clock value moves
// through its own accuracy interval, so the side the clock moves towards
// shrinks and the other grows by the amortization rate — with the
// hardware's zero-masking: a shrinking accuracy saturates at zero rather
// than going negative. Register reads saturate at the 16-bit width
// rather than wrapping.
type acu struct {
	u *UTCSU
	// Deterioration rates in 2⁻⁶⁴ s units per tick.
	detMinus uint64
	detPlus  uint64
	minus    acuSide
	plus     acuSide
}

// acuSide is one accumulator: its current segment and the one it
// replaced, which still governs the current tick when the new one starts
// at the next (the LTU keeps the same pair).
type acuSide struct {
	prev, cur acuSeg
}

type acuSeg struct {
	startTick uint64
	base      int64 // accuracy in 2⁻⁶⁴ s units at startTick (≥ 0)
	rate      int64 // signed units per tick
}

// satUnits caps the internal accumulator a little above the register
// saturation point so the value cannot overflow during long runs.
const satUnits = (int64(timefmt.AlphaMax) + 1) << 40

func (a *acu) init(u *UTCSU) {
	a.u = u
}

// SetDriftBoundPPB programs the deterioration rates: the accuracy grows
// by the drift bound per unit of elapsed time, keeping t ∈ A(t) valid as
// the free-running clock drifts (paper §2: "drift compensation must also
// be performed continuously by the local interval clock").
func (u *UTCSU) SetDriftBoundPPB(minusPPB, plusPPB int64) {
	a := &u.acu
	a.detMinus = fixpt.AugendForRate(u.osc.NominalHz(), float64(minusPPB)*1e-9)
	a.detPlus = fixpt.AugendForRate(u.osc.NominalHz(), float64(plusPPB)*1e-9)
	a.reseg()
}

// SetAlpha loads both accuracy registers atomically (in conjunction with
// a clock adjustment, this is the interval (re)initialization).
func (u *UTCSU) SetAlpha(minus, plus timefmt.Duration) {
	a := &u.acu
	n := u.tick() + 1
	a.place(&a.minus, acuSeg{startTick: n, base: clampUnits(int64(clampDur(minus)) << 40), rate: a.rateMinus()})
	a.place(&a.plus, acuSeg{startTick: n, base: clampUnits(int64(clampDur(plus)) << 40), rate: a.ratePlus()})
}

// Alpha returns the current saturated register values.
func (u *UTCSU) Alpha() (minus, plus timefmt.Alpha) {
	return u.acu.at(u.tick())
}

func clampDur(d timefmt.Duration) timefmt.Duration {
	if d < 0 {
		return 0
	}
	if d > timefmt.Duration(timefmt.AlphaMax) {
		return timefmt.Duration(timefmt.AlphaMax)
	}
	return d
}

func clampUnits(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > satUnits {
		return satUnits
	}
	return v
}

// rateMinus/ratePlus fold the amortization coupling into the
// deterioration rates: while the clock is sped up by amortDelta per tick
// (moving towards the upper edge), α⁺ shrinks and α⁻ grows by the same
// amount, keeping the interval edges fixed in real time.
func (a *acu) rateMinus() int64 { return int64(a.detMinus) + a.u.ltu.amortDeltaNow() }
func (a *acu) ratePlus() int64  { return int64(a.detPlus) - a.u.ltu.amortDeltaNow() }

// onClockSegChange re-segments both sides so rate coupling follows the
// LTU's amortization state.
func (a *acu) onClockSegChange() { a.reseg() }

func (a *acu) reseg() {
	n := a.u.tick() + 1
	am, ap := a.unitsAt(n)
	a.place(&a.minus, acuSeg{startTick: n, base: clampUnits(am), rate: a.rateMinus()})
	a.place(&a.plus, acuSeg{startTick: n, base: clampUnits(ap), rate: a.ratePlus()})
}

func (a *acu) place(side *acuSide, s acuSeg) {
	switch {
	case side.cur.startTick == s.startTick:
		side.cur = s
	case side.cur.startTick > s.startTick:
		// Every placement starts at tick()+1 and tick() never decreases.
		panic(fmt.Sprintf("utcsu: ACU segment at tick %d placed before the current one at tick %d", s.startTick, side.cur.startTick))
	default:
		side.prev, side.cur = side.cur, s
	}
}

// segAt returns the segment governing tick n. Reads are at the current
// tick or later; one older than the retained pair panics.
func (side *acuSide) segAt(n uint64) *acuSeg {
	if n >= side.cur.startTick {
		return &side.cur
	}
	if n >= side.prev.startTick {
		return &side.prev
	}
	panic(fmt.Sprintf("utcsu: ACU read at tick %d precedes the retained segments (from tick %d)", n, side.prev.startTick))
}

// unitsAt evaluates both accumulators at tick n with zero-masking.
func (a *acu) unitsAt(n uint64) (am, ap int64) {
	evalSide := func(side *acuSide) int64 {
		s := side.segAt(n)
		dn := int64(n - s.startTick)
		// Saturate before the multiply can overflow.
		if s.rate > 0 && dn > (satUnits-s.base)/s.rate {
			return satUnits
		}
		if s.rate < 0 && dn > s.base/(-s.rate) {
			return 0
		}
		return clampUnits(s.base + s.rate*dn)
	}
	return evalSide(&a.minus), evalSide(&a.plus)
}

// at returns the saturated 16-bit register values at tick n.
func (a *acu) at(n uint64) (timefmt.Alpha, timefmt.Alpha) {
	am, ap := a.unitsAt(n)
	return unitsToAlpha(am), unitsToAlpha(ap)
}

func unitsToAlpha(v int64) timefmt.Alpha {
	g := v >> 40
	if g >= int64(timefmt.AlphaMax) {
		return timefmt.AlphaMax
	}
	if g < 0 {
		return 0
	}
	return timefmt.Alpha(g)
}
