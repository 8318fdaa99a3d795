package discipline

import "ntisim/internal/interval"

// ConvergeFunc fuses one round's accuracy intervals, tolerating up to f
// faulty inputs; interval.OrthogonalAccuracy and its variants have this
// type.
type ConvergeFunc func(ivs []interval.Interval, f int) (interval.Interval, bool)

// Interval adapts the paper's interval-based convergence functions to
// the Discipline interface: the whole correction is the fused
// interval, no filter state, no rate steering. This is the baseline
// every other discipline is campaigned against.
type Interval struct {
	name string
	fn   ConvergeFunc // nil: the allocation-free Fuser OA fast path
	fz   interval.Fuser
}

// NewInterval returns the orthogonal-accuracy baseline discipline. It
// computes exactly interval.OrthogonalAccuracy, through scratch buffers
// that make the steady-state round allocation-free.
func NewInterval() *Interval { return &Interval{name: "interval"} }

// WrapConverge adapts an arbitrary convergence function (e.g. the E14
// ablations interval.OrthogonalAccuracyFTA or interval.MarzulloMidpoint)
// as a Discipline.
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
	var out interval.Interval
	var ok bool
	if d.fn != nil {
		out, ok = d.fn(s.Intervals, s.F)
	} else {
		out, ok = d.fz.OrthogonalAccuracy(s.Intervals, s.F)
	}
	if !ok {
		return Action{}, false
	}
	return Action{Interval: out}, true
}
