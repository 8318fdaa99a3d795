package utcsu

import (
	"fmt"

	"ntisim/internal/fixpt"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// ltu is the Local Time Unit: the adder-based clock (paper §3.3).
//
// Instead of a counter, the hardware adds a programmable augend (a
// multiple of 2⁻⁵¹ s) to a wide register on every oscillator tick. The
// model represents the clock as piecewise-affine segments over the tick
// index: within a segment the clock value at tick n is exactly
// base + augend·(n−startTick), computed with 128-bit integer arithmetic.
// A new segment starts at the next tick on rate adjustment, amortization
// start/end and state loads, so every read is bit-identical to what the
// register would hold. Like the register, the model keeps only the
// present: the current segment and the one it replaced, which still
// governs the current tick when the new one starts at the next.
type ltu struct {
	u          *UTCSU
	prev, cur  clockSeg // prev == cur until the first new segment
	baseAugend uint64   // rate-adjusted augend, without amortization
	ratePPB    int64    // last commanded rate offset

	amortDelta   int64 // signed extra augend while amortizing, else 0
	amortEnd     *sim.Event
	amortEndFn   func()           // l.endAmortization, bound once in init
	amortPending timefmt.Duration // remaining offset (diagnostics)
}

type clockSeg struct {
	startTick uint64
	base      fixpt.Time // clock value at startTick
	augend    uint64     // effective per-tick increment (2⁻⁶⁴ s units)
}

func (l *ltu) init(u *UTCSU) {
	l.u = u
	l.amortEndFn = l.endAmortization
	l.baseAugend = fixpt.AugendForRate(u.osc.NominalHz(), 1.0)
	l.cur = clockSeg{startTick: 0, base: fixpt.Time{}, augend: l.baseAugend}
	l.prev = l.cur
}

// segOf returns the segment governing tick n. Reads are at the current
// tick or later; one older than the retained pair panics.
func (l *ltu) segOf(n uint64) *clockSeg {
	if n >= l.cur.startTick {
		return &l.cur
	}
	if n >= l.prev.startTick {
		return &l.prev
	}
	panic(fmt.Sprintf("utcsu: LTU read at tick %d precedes the retained segments (from tick %d)", n, l.prev.startTick))
}

// valueAt returns the exact register content at tick n.
func (l *ltu) valueAt(n uint64) fixpt.Time {
	s := l.segOf(n)
	return s.base.AddScaled(s.augend, n-s.startTick)
}

// effectiveAugend is baseAugend adjusted by any running amortization,
// clamped to stay positive (the clock never runs backwards; paper §5:
// STEP < 2·Gosc, nominal speed at most doubled).
func (l *ltu) effectiveAugend() uint64 {
	a := int64(l.baseAugend) + l.amortDelta
	if a < int64(fixpt.AugendUnit) {
		a = int64(fixpt.AugendUnit)
	}
	if max := int64(2 * l.baseAugend); a > max {
		a = max
	}
	return uint64(a)
}

// appendSeg installs a new effective augend from the next tick on.
// Writes to clock control registers take effect at a tick boundary.
func (l *ltu) appendSeg(augend uint64) {
	n := l.u.tick() + 1
	base := l.valueAt(n)
	l.placeSeg(clockSeg{startTick: n, base: base, augend: augend})
}

func (l *ltu) placeSeg(s clockSeg) {
	if l.cur.startTick == s.startTick {
		l.cur = s
	} else {
		l.prev, l.cur = l.cur, s
	}
	l.u.acu.onClockSegChange()
	l.u.rearmTimers()
}

// SetRatePPB adjusts the clock rate by ppb parts-per-billion relative to
// the oscillator's nominal rate, by loading a new augend. The achievable
// granularity is one augend unit, i.e. fosc·2⁻⁵¹ s/s (≈9 ns/s @ 20 MHz).
func (u *UTCSU) SetRatePPB(ppb int64) {
	l := &u.ltu
	l.ratePPB = ppb
	l.baseAugend = fixpt.AugendForRate(u.osc.NominalHz(), 1+float64(ppb)*1e-9)
	if l.baseAugend < fixpt.AugendUnit {
		l.baseAugend = fixpt.AugendUnit
	}
	l.appendSeg(l.effectiveAugend())
}

// RatePPB returns the last commanded rate adjustment.
func (u *UTCSU) RatePPB() int64 { return u.ltu.ratePPB }

// RateStepPPB returns the rate-adjustment granularity in ppb: the rate
// change caused by one augend unit (2⁻⁵¹ s) at the pacing frequency.
func (u *UTCSU) RateStepPPB() float64 {
	return u.osc.NominalHz() / float64(uint64(1)<<51) * 1e9
}

// StepTo loads the clock state register directly: from the next tick the
// clock reads value. Used for initialization and clock steps; during
// normal operation state changes go through Amortize.
func (u *UTCSU) StepTo(value timefmt.Stamp) {
	l := &u.ltu
	l.cancelAmortization()
	n := u.tick() + 1
	l.placeSeg(clockSeg{startTick: n, base: value.Time(), augend: l.effectiveAugend()})
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
	l := &u.ltu
	l.cancelAmortization()
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
	if int64(aug) >= int64(l.baseAugend) {
		aug = l.baseAugend - fixpt.AugendUnit
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
		l.amortDelta = int64(aug)
	} else {
		l.amortDelta = -int64(aug)
	}
	l.amortPending = delta
	l.appendSeg(l.effectiveAugend())
	endTick := l.cur.startTick + nTicks
	l.amortEnd = u.sim.At(u.osc.TimeOfTick(endTick), l.amortEndFn)
}

// endAmortization is the amortization duty timer's handler: restore the
// rate-adjusted augend and raise INTT.
func (l *ltu) endAmortization() {
	l.amortEnd = nil
	l.cancelAmortization()
	l.u.intr.raise(INTT)
}

// Amortizing reports whether a continuous amortization is in progress
// and the offset it was programmed with.
func (u *UTCSU) Amortizing() (bool, timefmt.Duration) {
	return u.ltu.amortDelta != 0, u.ltu.amortPending
}

// amortDeltaNow exposes the signed amortization augend to the ACU for
// its zero-masking logic.
func (l *ltu) amortDeltaNow() int64 { return l.amortDelta }

func (l *ltu) cancelAmortization() {
	if l.amortEnd != nil {
		l.amortEnd.Cancel()
		l.amortEnd = nil
	}
	if l.amortDelta != 0 {
		l.amortDelta = 0
		l.amortPending = 0
		l.appendSeg(l.effectiveAugend())
	}
}
