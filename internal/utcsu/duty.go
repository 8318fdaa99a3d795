package utcsu

import (
	"fmt"
	"math/bits"

	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// NumDuty is the number of duty-timer registers: the two the clock
// synchronization programs, for convergence and for the CSP broadcast.
const NumDuty = 2

// DutyTimer is one of the UTCSU's 48-bit programmable duty timers: a
// compare register that raises INTT when local time reaches the
// programmed value (paper §3.3). Duty timers pace the CSP exchange
// protocol and application events. The handler is attached once, like
// the ISR the CPU attaches to the timer interrupt; Set and Cancel then
// program and disarm the register.
//
// Because the model's clock is piecewise affine in the tick index, the
// firing moment is computed by inverting the current segment; every
// clock write re-arms the pending timers not due at the current tick,
// and the firing handler double-checks the clock actually reached the
// target (the underlying oscillator may have drifted between arming and
// firing), re-arming itself if not.
type DutyTimer struct {
	u       *UTCSU
	idx     int
	target  timefmt.Stamp
	tick    uint64 // the tick the pending register's event is armed for
	pending bool
	fn      func()
	fireFn  func() // dt.fire, bound once in New
	ev      *sim.Event
}

// Duty returns duty-timer register i (0..NumDuty-1).
func (u *UTCSU) Duty(i int) *DutyTimer { return &u.duty[i] }

// OnFire attaches the handler the register calls, in simulation
// context, after it raises INTT; until then it only raises INTT.
func (dt *DutyTimer) OnFire(fn func()) { dt.fn = fn }

// Set programs the register to fire when the local clock reaches
// target, or at the next tick if target is past. Programming a pending
// register panics: its owner must Cancel it first.
func (dt *DutyTimer) Set(target timefmt.Stamp) {
	if dt.pending {
		panic(fmt.Sprintf("utcsu: duty timer %d set while pending", dt.idx))
	}
	dt.target = target
	dt.pending = true
	dt.arm()
}

// Cancel disarms the register; it is a no-op when none is pending.
func (dt *DutyTimer) Cancel() {
	if !dt.pending {
		return
	}
	dt.pending = false
	if dt.ev != nil {
		dt.ev.Cancel()
		dt.ev = nil
	}
}

// arm (re)schedules the underlying simulation event.
func (dt *DutyTimer) arm() {
	if dt.ev != nil {
		dt.ev.Cancel()
	}
	u := dt.u
	n := u.fireTickFor(dt.target)
	dt.tick = n
	at := u.osc.TimeOfTick(n)
	if now := u.sim.Now(); at < now {
		at = now
	}
	dt.ev = u.sim.At(at, dt.fireFn)
}

func (dt *DutyTimer) fire() {
	dt.ev = nil
	if !dt.pending {
		return
	}
	u := dt.u
	if u.Now() < dt.target {
		// Oscillator segments shifted after arming; try again strictly
		// later so a pathological mapping can never loop in place.
		n := u.fireTickFor(dt.target)
		dt.tick = n
		at := u.osc.TimeOfTick(n)
		if min := u.sim.Now() + u.osc.NominalPeriod()/2; at < min {
			at = min
		}
		dt.ev = u.sim.At(at, dt.fireFn)
		return
	}
	dt.pending = false
	u.intr.raise(INTT)
	dt.fn()
}

// fireTickFor returns the first tick after the current one at which the
// clock reads >= target. A write takes effect at the next tick n, so the
// segment governing n governs every later tick until the next write,
// which re-arms the timers.
func (u *UTCSU) fireTickFor(target timefmt.Stamp) uint64 {
	n := u.tick() + 1
	s := u.segAt(n)
	diff := target.Time().Sub(s.clockAt(n))
	if diff.IsNegative() {
		return n // already reached: fire on the next edge
	}
	// ticks = ceil(diff / augend), computed as a 128-bit division:
	// diff = Sec·2^64 + Frac units of 2⁻⁶⁴ s. Sec is far below the augend
	// (≈9e11) for any realistic span, so the quotient fits 64 bits.
	ticks, rem := bits.Div64(uint64(diff.Sec), diff.Frac, s.augend)
	if rem != 0 {
		ticks++
	}
	return n + ticks
}

// rearmTimers recomputes the pending registers, in index order, after a
// clock write. A register due at the current tick keeps its event: the
// write takes effect at the next tick, after the clock reached its
// target.
func (u *UTCSU) rearmTimers() {
	now := u.tick()
	for i := range u.duty {
		if dt := &u.duty[i]; dt.pending && dt.tick > now {
			dt.arm()
		}
	}
}
