package utcsu

import (
	"math/bits"

	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// DutyTimer is one of the UTCSU's 48-bit programmable duty timers: when
// local time reaches the programmed value an interrupt is raised (paper
// §3.3). Duty timers pace the CSP exchange protocol and application
// events.
//
// Because the model's clock is piecewise affine in the tick index, the
// firing moment is computed by inverting the current segment; rate
// adjustments and amortization re-arm every pending timer, and the firing
// handler double-checks the clock actually reached the target (the
// underlying oscillator may have drifted between arming and firing),
// re-arming itself if not.
type DutyTimer struct {
	u      *UTCSU
	target timefmt.Stamp
	fn     func()
	// fireFn caches the dt.fire method value: arm runs on every rate
	// adjustment and amortization step, and a fresh bound-method closure
	// per arm was the second-largest allocation site of a campaign run.
	fireFn func()
	ev     *sim.Event
	done   bool
}

// DutyAt arms a duty timer to call fn when the local clock reaches
// target. The callback runs in simulation context (it models the ISR the
// CPU attaches to the timer interrupt). If target is already in the past
// the timer fires at the next tick.
func (u *UTCSU) DutyAt(target timefmt.Stamp, fn func()) *DutyTimer {
	dt := &DutyTimer{u: u, target: target, fn: fn}
	dt.fireFn = dt.fire
	u.timers = append(u.timers, dt)
	dt.arm()
	return dt
}

// Cancel disarms the timer.
func (dt *DutyTimer) Cancel() {
	if dt.done {
		return
	}
	dt.done = true
	if dt.ev != nil {
		dt.ev.Cancel()
		dt.ev = nil
	}
	dt.u.removeTimer(dt)
}

// arm (re)schedules the underlying simulation event.
func (dt *DutyTimer) arm() {
	if dt.done {
		return
	}
	if dt.ev != nil {
		dt.ev.Cancel()
	}
	u := dt.u
	n := u.fireTickFor(dt.target)
	at := u.osc.TimeOfTick(n)
	if now := u.sim.Now(); at < now {
		at = now
	}
	dt.ev = u.sim.At(at, dt.fireFn)
}

func (dt *DutyTimer) fire() {
	dt.ev = nil
	if dt.done {
		return
	}
	u := dt.u
	if u.Now() < dt.target {
		// Oscillator segments shifted after arming; try again strictly
		// later so a pathological mapping can never loop in place.
		n := u.fireTickFor(dt.target)
		at := u.osc.TimeOfTick(n)
		if min := u.sim.Now() + u.osc.NominalPeriod()/2; at < min {
			at = min
		}
		dt.ev = u.sim.At(at, dt.fireFn)
		return
	}
	dt.done = true
	u.removeTimer(dt)
	u.intr.raise(u, INTT, "DUTY")
	dt.fn()
}

// fireTickFor computes the first tick at which the clock reads >= target.
func (u *UTCSU) fireTickFor(target timefmt.Stamp) uint64 {
	l := &u.ltu
	now := u.tick()
	if timefmt.StampFromTime(l.valueAt(now)) >= target {
		return now + 1 // already past: fire on the next edge
	}
	seg := l.segs[len(l.segs)-1]
	start := seg.startTick
	if now > start {
		start = now
	}
	cur := l.valueAt(start)
	diff := target.Time().Sub(cur)
	if diff.IsNegative() {
		return start + 1
	}
	// ticks = ceil(diff / augend), computed as a 128-bit division:
	// diff = Sec·2^64 + Frac units of 2⁻⁶⁴ s. Sec is far below the augend
	// (≈9e11) for any realistic span, so the quotient fits 64 bits.
	aug := seg.augend
	ticks, rem := bits.Div64(uint64(diff.Sec), diff.Frac, aug)
	if rem != 0 {
		ticks++
	}
	if ticks == 0 {
		ticks = 1
	}
	return start + ticks
}

// rearmTimers recomputes all pending timers after a clock segment change.
func (u *UTCSU) rearmTimers() {
	for _, dt := range u.timers {
		dt.arm()
	}
}

func (u *UTCSU) removeTimer(dt *DutyTimer) {
	for i, t := range u.timers {
		if t == dt {
			u.timers = append(u.timers[:i], u.timers[i+1:]...)
			return
		}
	}
}
