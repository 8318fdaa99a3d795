package discipline

import "ntisim/internal/timefmt"

// PIPLL is a proportional-integral (type-II PLL) rate controller that
// can wrap any offset-filter discipline — the shape of scion-time's
// adjustments/pll and the classic NTP clock servo. The inner discipline
// measures the offset; the wrapper applies only the proportional
// fraction of it as a phase correction and integrates the rest into a
// persistent frequency adjustment, so a constant oscillator drift is
// eventually absorbed by the rate word and the per-round phase
// corrections decay toward the measurement noise floor.
//
// Containment is unaffected: the inner discipline's interval edges are
// kept, re-referenced at the reduced phase command (Rereference extends
// the interval when the reference leaves it, so requirement (A)
// survives a deliberately sluggish servo).
type PIPLL struct {
	inner Discipline
	name  string

	totalPPB int64 // integral state: net rate commanded so far
	lastNow  timefmt.Stamp
	haveLast bool
}

// The PI/PLL gains are typed variables so the branch products round in
// float64 step by step.
var (
	// piKP is the proportional phase gain per round.
	piKP float64 = 0.6
	// piKI is the integral frequency gain per round [1/s]: each round
	// adds piKI·offset/period to the rate word.
	piKI float64 = 0.08
)

// NewPIPLL wraps an inner offset-filter discipline in the PI/PLL rate
// controller.
func NewPIPLL(inner Discipline) *PIPLL {
	return &PIPLL{inner: inner, name: "pi-" + inner.Name()}
}

// Name implements Discipline.
func (d *PIPLL) Name() string { return d.name }

// Step implements Discipline.
func (d *PIPLL) Step(s Sample) (Action, bool) {
	act, ok := d.inner.Step(s)
	if !ok {
		return Action{}, false
	}
	offS := act.Interval.Ref.Sub(s.Now).Seconds()
	dt := 1.0
	if d.haveLast {
		if e := s.Now.Sub(d.lastNow).Seconds(); e > 0 {
			dt = e
		}
	}
	d.lastNow, d.haveLast = s.Now, true

	// Integral branch: offset → frequency, anti-windup clamped so the
	// total stays inside the a priori drift bound.
	delta := int64(piKI * offS / dt * 1e9)
	if tot := d.totalPPB + delta; tot > maxRatePPB {
		delta = maxRatePPB - d.totalPPB
	} else if tot < -maxRatePPB {
		delta = -maxRatePPB - d.totalPPB
	}
	d.totalPPB += delta

	// Proportional branch: command only piKP of the phase error.
	ref := s.Now.Add(timefmt.DurationFromSeconds(piKP * offS))
	out := Action{
		Interval:     act.Interval.Rereference(ref),
		RateDeltaPPB: act.RateDeltaPPB + delta,
	}
	return out, true
}
