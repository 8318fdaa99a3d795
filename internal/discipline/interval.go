package discipline

import "ntisim/internal/interval"

// ConvergeFunc fuses one round's accuracy intervals on the given Fuser's
// scratch buffers, tolerating up to f faulty inputs; the method
// expressions (*interval.Fuser).OrthogonalAccuracy and its variants have
// this type.
type ConvergeFunc func(fz *interval.Fuser, ivs []interval.Interval, f int) (interval.Interval, bool)

// Interval adapts the paper's interval-based convergence functions to
// the Discipline interface: the whole correction is the fused
// interval, no filter state, no rate steering. This is the baseline
// every other discipline is campaigned against.
type Interval struct {
	name string
	fn   ConvergeFunc
	fz   interval.Fuser
}

// NewInterval returns the orthogonal-accuracy baseline discipline:
// interval.Fuser's OrthogonalAccuracy, whose scratch buffers make the
// steady-state round allocation-free.
func NewInterval() *Interval {
	return &Interval{name: "interval", fn: (*interval.Fuser).OrthogonalAccuracy}
}

// WrapConverge adapts an arbitrary convergence function (e.g. the E14
// ablations (*interval.Fuser).OrthogonalAccuracyFTA or
// (*interval.Fuser).MarzulloMidpoint) as a Discipline.
func WrapConverge(name string, fn ConvergeFunc) *Interval {
	if name == "" {
		name = "custom"
	}
	return &Interval{name: name, fn: fn}
}

// Name implements Discipline.
func (d *Interval) Name() string { return d.name }

// Step implements Discipline.
func (d *Interval) Step(s Sample) (Action, bool) {
	out, ok := d.fn(&d.fz, s.Intervals, s.F)
	if !ok {
		return Action{}, false
	}
	return Action{Interval: out}, true
}
