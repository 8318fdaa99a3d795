package utcsu

import (
	"fmt"

	"ntisim/internal/fixpt"
	"ntisim/internal/timefmt"
)

// regs is one segment of the register timeline: the LTU clock and the
// ACU's two accuracy accumulators (paper §3.3). All three are adders
// stepped by the same oscillator tick, so within a segment the content
// of each at tick n is exact integer arithmetic on its value at
// startTick: the clock is clock + augend·(n−startTick) in 128 bits, an
// accumulator is alpha + rate·(n−startTick), saturating and zero-masked.
//
// Every register write (SetRatePPB, Amortize and its end or cancel,
// StepTo, SetAlpha, SetDriftBoundPPB) takes effect at the next tick:
// next evaluates every register at tick()+1, the write changes the
// fields it writes, and place installs the one new segment. Like the
// registers, the model keeps only the present: the segment in force and
// the one it replaced, which still governs the current tick when the
// new one starts at the next.
type regs struct {
	startTick uint64
	clock     fixpt.Time // clock register at startTick
	augend    uint64     // effective per-tick clock increment (2⁻⁶⁴ s units)

	// The α⁻/α⁺ accumulators at startTick, in 2⁻⁶⁴ s units within
	// [0, satUnits], and their signed per-tick increments.
	alphaMinus, alphaPlus int64
	rateMinus, ratePlus   int64
}

// clockAt returns the clock register at tick n ≥ s.startTick.
func (s *regs) clockAt(n uint64) fixpt.Time { return s.clock.AddScaled(s.augend, n-s.startTick) }

// alphaAt returns both accuracy accumulators at tick n ≥ s.startTick.
func (s *regs) alphaAt(n uint64) (am, ap int64) {
	dn := int64(n - s.startTick)
	return accumulate(s.alphaMinus, s.rateMinus, dn), accumulate(s.alphaPlus, s.ratePlus, dn)
}

// segAt returns the segment governing tick n. Reads are at the current
// tick or later; one older than the retained pair panics.
func (u *UTCSU) segAt(n uint64) *regs {
	if n >= u.cur.startTick {
		return &u.cur
	}
	if n >= u.prev.startTick {
		return &u.prev
	}
	panic(fmt.Sprintf("utcsu: register read at tick %d precedes the retained segments (from tick %d)", n, u.prev.startTick))
}

// valueAt returns the exact clock register content at tick n.
func (u *UTCSU) valueAt(n uint64) fixpt.Time { return u.segAt(n).clockAt(n) }

// read returns the clock and both accuracy registers at tick n, as the
// timestamp registers latch them.
func (u *UTCSU) read(n uint64) (timefmt.Stamp, timefmt.Alpha, timefmt.Alpha) {
	s := u.segAt(n)
	am, ap := s.alphaAt(n)
	return timefmt.StampFromTime(s.clockAt(n)), unitsToAlpha(am), unitsToAlpha(ap)
}

// next returns every register at the next tick, where a write takes
// effect, with the augend and accumulator rates the control registers
// now program: the ACU rates fold in the amortization coupling. While
// the clock is sped up by amortDelta per tick (moving towards the upper
// edge), α⁺ shrinks and α⁻ grows by the same amount, keeping the
// interval edges fixed in real time.
func (u *UTCSU) next() regs {
	n := u.tick() + 1
	s := u.segAt(n)
	am, ap := s.alphaAt(n)
	return regs{
		startTick: n, clock: s.clockAt(n), augend: u.effectiveAugend(),
		alphaMinus: am, alphaPlus: ap,
		rateMinus: int64(u.detMinus) + u.amortDelta,
		ratePlus:  int64(u.detPlus) - u.amortDelta,
	}
}

// place installs s as the segment in force from its start tick on.
func (u *UTCSU) place(s regs) {
	switch {
	case u.cur.startTick == s.startTick:
		u.cur = s
	case u.cur.startTick > s.startTick:
		// Every placement starts at tick()+1 and tick() never decreases.
		panic(fmt.Sprintf("utcsu: register segment at tick %d placed before the current one at tick %d", s.startTick, u.cur.startTick))
	default:
		u.prev, u.cur = u.cur, s
	}
}

// placeClock places a segment whose clock differs from the one in force
// and re-arms the duty timers, whose firing ticks follow the clock.
func (u *UTCSU) placeClock(s regs) {
	u.place(s)
	u.rearmTimers()
}

// effectiveAugend is baseAugend adjusted by any running amortization,
// clamped to stay positive (the clock never runs backwards; paper §5:
// STEP < 2·Gosc, nominal speed at most doubled).
func (u *UTCSU) effectiveAugend() uint64 {
	a := int64(u.baseAugend) + u.amortDelta
	if a < int64(fixpt.AugendUnit) {
		a = int64(fixpt.AugendUnit)
	}
	if max := int64(2 * u.baseAugend); a > max {
		a = max
	}
	return uint64(a)
}

// SetRatePPB adjusts the clock rate by ppb parts-per-billion relative to
// the oscillator's nominal rate, by loading a new augend. The achievable
// granularity is one augend unit, i.e. fosc·2⁻⁵¹ s/s (≈9 ns/s @ 20 MHz).
func (u *UTCSU) SetRatePPB(ppb int64) {
	u.ratePPB = ppb
	u.baseAugend = fixpt.AugendForRate(u.osc.NominalHz(), 1+float64(ppb)*1e-9)
	if u.baseAugend < fixpt.AugendUnit {
		u.baseAugend = fixpt.AugendUnit
	}
	u.placeClock(u.next())
}

// RatePPB returns the last commanded rate adjustment.
func (u *UTCSU) RatePPB() int64 { return u.ratePPB }

// RateStepPPB returns the rate-adjustment granularity in ppb: the rate
// change caused by one augend unit (2⁻⁵¹ s) at the pacing frequency.
func (u *UTCSU) RateStepPPB() float64 {
	return u.osc.NominalHz() / float64(uint64(1)<<51) * 1e9
}

// StepTo loads the clock state register directly: from the next tick the
// clock reads value. Used for initialization and clock steps; during
// normal operation state changes go through Amortize.
func (u *UTCSU) StepTo(value timefmt.Stamp) {
	u.cancelAmortization()
	s := u.next()
	s.clock = value.Time()
	u.placeClock(s)
}

// AmortConfig sets the speed of continuous amortization as a fraction of
// nominal rate (e.g. 5000 ppm = the clock runs 0.5% fast/slow until the
// offset is amortized).
const DefaultAmortPPM = 5000

// Amortize applies a state adjustment of delta to the clock via
// continuous amortization: the effective augend is changed by ±speedPPM
// of nominal until the programmed offset has accumulated, then restored
// (the hardware's amortization duty timer). A running amortization is
// superseded. Offsets of a second or more do not amortize sensibly;
// callers should StepTo for initial synchronization.
//
// The residual below one augend-quantum per tick (≈ speed/fosc seconds,
// sub-nanosecond) is not applied; the next round absorbs it.
func (u *UTCSU) Amortize(delta timefmt.Duration, speedPPM int64) {
	u.cancelAmortization()
	if delta == 0 {
		return
	}
	if speedPPM <= 0 {
		speedPPM = DefaultAmortPPM
	}
	mag := delta.Abs()
	// Per-tick extra augend, quantized to the STEP granularity.
	aug := fixpt.AugendForRate(u.osc.NominalHz(), float64(speedPPM)*1e-6)
	if aug < fixpt.AugendUnit {
		aug = fixpt.AugendUnit
	}
	// Keep the clock monotonic when slowing down.
	if int64(aug) >= int64(u.baseAugend) {
		aug = u.baseAugend - fixpt.AugendUnit
		if aug == 0 {
			return
		}
	}
	// Offset in 2⁻⁶⁴ s units; |delta| < 1 s fits in uint64.
	if mag >= timefmt.Duration(1)<<24 {
		// ≥ 1 s: amortization is the wrong tool; clamp to just under 1 s
		// and let the caller converge over rounds (or StepTo).
		mag = timefmt.Duration(1)<<24 - 1
	}
	units := uint64(mag) << 40
	nTicks := units / aug
	if nTicks == 0 {
		return
	}
	if delta > 0 {
		u.amortDelta = int64(aug)
	} else {
		u.amortDelta = -int64(aug)
	}
	u.amortPending = delta
	u.placeClock(u.next())
	endTick := u.cur.startTick + nTicks
	u.amortEnd = u.sim.At(u.osc.TimeOfTick(endTick), u.amortEndFn)
}

// endAmortization is the amortization duty timer's handler: restore the
// rate-adjusted augend and raise INTT.
func (u *UTCSU) endAmortization() {
	u.amortEnd = nil
	u.cancelAmortization()
	u.intr.raise(INTT)
}

// Amortizing reports whether a continuous amortization is in progress
// and the offset it was programmed with.
func (u *UTCSU) Amortizing() (bool, timefmt.Duration) {
	return u.amortDelta != 0, u.amortPending
}

func (u *UTCSU) cancelAmortization() {
	if u.amortEnd != nil {
		u.amortEnd.Cancel()
		u.amortEnd = nil
	}
	if u.amortDelta != 0 {
		u.amortDelta = 0
		u.amortPending = 0
		u.placeClock(u.next())
	}
}
