package discipline

import "ntisim/internal/interval"

// Lucky is an ntimed-style lucky-sample filter (scion-time's
// filter_ntimed shape): each round's fault-tolerant-midpoint offset is
// recorded together with a quality figure — the width of the round's
// Marzullo intersection, which shrinks when delay noise was low and the
// peers agreed tightly. The correction tracks an exponentially-weighted
// average of the *luckiest* (narrowest-intersection) sample in a short
// window, so one quiet medium round dominates several noisy ones
// instead of being averaged away by them.
type Lucky struct {
	fz interval.Fuser

	samples []luckySample // ring, oldest first
	ewma    float64
	init    bool
}

// luckyWindow is the lucky-selection depth in rounds.
const luckyWindow = 8

// luckyGain is the EWMA weight of each round's lucky sample, a typed
// variable so the smoothing product rounds in float64.
var luckyGain float64 = 0.25

type luckySample struct {
	off     float64 // residual offset [s], adjusted for later commands
	quality float64 // Marzullo intersection width [s]; smaller is better
}

// NewLucky returns a lucky-sample discipline.
func NewLucky() *Lucky { return &Lucky{} }

// Name implements Discipline.
func (d *Lucky) Name() string { return "lucky" }

// Step implements Discipline.
func (d *Lucky) Step(s Sample) (Action, bool) {
	mz, z, ok := measure(&d.fz, s)
	if !ok {
		return Action{}, false
	}
	if len(d.samples) >= luckyWindow {
		copy(d.samples, d.samples[1:])
		d.samples = d.samples[:len(d.samples)-1]
	}
	d.samples = append(d.samples, luckySample{off: z, quality: mz.Length().Seconds()})

	// Pick the luckiest sample in the window (ties: the most recent).
	best := 0
	for i := 1; i < len(d.samples); i++ {
		if d.samples[i].quality <= d.samples[best].quality {
			best = i
		}
	}
	lucky := d.samples[best].off
	if !d.init {
		d.init = true
		d.ewma = lucky
	} else {
		d.ewma += luckyGain * (lucky - d.ewma)
	}

	// Command the smoothed estimate, then re-express the stored window
	// (and the EWMA itself) relative to the corrected clock.
	corr := d.ewma
	for i := range d.samples {
		d.samples[i].off -= corr
	}
	d.ewma = 0
	return Action{Interval: mz.Rereference(refAt(s.Now, corr))}, true
}
