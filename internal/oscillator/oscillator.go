// Package oscillator models the quartz oscillators that pace a UTCSU.
//
// The paper drives the UTCSU from an on-board TCXO or OCXO (§3.2) with any
// frequency in 1..20 MHz (§3.3); the model provides the TCXO. What matters to clock synchronization is
// the frequency trajectory: a systematic calibration offset, a slow random
// walk (aging, supply), and a temperature-induced component. The model is
// piecewise constant in frequency — a new segment is appended at every
// drift update — so tick index and true time convert exactly in O(log n),
// with no per-tick simulation.
//
// Tick 0 occurs at the oscillator's start time; tick n at start +
// n·period, with the period changing only at segment boundaries aligned to
// tick boundaries (a frequency step takes effect at the next tick, as in
// real hardware).
package oscillator

import (
	"math"
	"sort"

	"ntisim/internal/sim"
)

// Config describes one oscillator: an ideal one (the zero value, and
// Ideal) or the TCXO.
type Config struct {
	NominalHz float64 // required, e.g. 10e6
	tcxo      bool
}

// TCXOClampPPM bounds the TCXO's drift to ±TCXOClampPPM.
const TCXOClampPPM = 5

// The TCXO's frequency trajectory: a systematic calibration offset
// drawn once per oscillator from N(0, calibSigmaPPM), a random walk
// that moves by N(0, walkStepPPM) every second and reflects at the
// ±clampPPM rail, and a temperature residual of tempAmpPPM with period
// tempPeriodS.
const (
	calibSigmaPPM = 1.0
	walkStepPPM   = 0.002
	tempPeriodS   = 900
)

// clampPPM and tempAmpPPM are typed so their products with 1e-6 round
// in float64; an untyped constant product would round once, to a
// different value.
var clampPPM, tempAmpPPM float64 = TCXOClampPPM, 0.3

// TCXO returns the temperature-compensated crystal the paper's UTCSU
// runs from (§3.2).
func TCXO(nominalHz float64) Config { return Config{NominalHz: nominalHz, tcxo: true} }

// Ideal returns a drift-free oscillator.
func Ideal(nominalHz float64) Config { return Config{NominalHz: nominalHz} }

type segment struct {
	t0     float64 // true time of tick n0
	n0     uint64
	period float64 // true seconds per tick
}

// Oscillator is a single oscillator instance bound to a simulator.
type Oscillator struct {
	cfg     Config
	rng     *sim.RNG
	s       *sim.Simulator
	segs    []segment
	baseOff float64 // systematic offset (fractional, not ppm)
	walk    float64 // current random-walk value (fractional)
	phase   float64 // temperature phase offset (radians)
	start   float64
}

// New creates an oscillator starting its tick 0 at the current simulated
// time and schedules its drift updates. label individualizes the RNG
// stream.
func New(s *sim.Simulator, cfg Config, label string) *Oscillator {
	if cfg.NominalHz <= 0 {
		panic("oscillator: NominalHz must be positive")
	}
	o := &Oscillator{cfg: cfg, s: s, start: s.Now()}
	if cfg.tcxo {
		o.rng = s.RNG("osc/" + label)
		o.baseOff = calibSigmaPPM * o.rng.Normal(0, 1) * 1e-6
		o.phase = o.rng.Float64() * 2 * math.Pi
		s.Every(o.start+1, 1, o.update)
	}
	o.segs = []segment{{t0: o.start, n0: 0, period: o.periodFor(o.start)}}
	return o
}

// NominalHz returns the nominal frequency.
func (o *Oscillator) NominalHz() float64 { return o.cfg.NominalHz }

// NominalPeriod returns 1/NominalHz.
func (o *Oscillator) NominalPeriod() float64 { return 1 / o.cfg.NominalHz }

// periodFor computes the true period at time t from the current drift
// state.
func (o *Oscillator) periodFor(t float64) float64 {
	return 1 / (o.cfg.NominalHz * (1 + o.driftFor(t)))
}

func (o *Oscillator) driftFor(t float64) float64 {
	if !o.cfg.tcxo {
		return 0
	}
	d := o.baseOff + o.walk + tempAmpPPM*1e-6*math.Sin(2*math.Pi*(t-o.start)/tempPeriodS+o.phase)
	if lim := clampPPM * 1e-6; d > lim {
		d = lim
	} else if d < -lim {
		d = -lim
	}
	return d
}

// update appends a new frequency segment, aligned to a tick boundary.
func (o *Oscillator) update() {
	o.walk += o.rng.Normal(0, walkStepPPM) * 1e-6
	// Reflect at the clamp so the walk doesn't stick to the rail.
	if lim := clampPPM * 1e-6; o.walk > lim {
		o.walk = 2*lim - o.walk
	} else if o.walk < -lim {
		o.walk = -2*lim - o.walk
	}
	now := o.s.Now()
	last := &o.segs[len(o.segs)-1]
	// Frequency change takes effect at the first tick at/after now.
	n := last.n0 + uint64(math.Ceil((now-last.t0)/last.period-1e-12))
	if n < last.n0 {
		n = last.n0
	}
	tn := last.t0 + float64(n-last.n0)*last.period
	p := o.periodFor(now)
	if n == last.n0 {
		// Segment had no ticks yet; replace in place.
		last.period = p
		return
	}
	o.segs = append(o.segs, segment{t0: tn, n0: n, period: p})
}

// segAt returns the segment governing true time t.
func (o *Oscillator) segAt(t float64) *segment {
	// Fast path: most queries are in the latest segment.
	if last := &o.segs[len(o.segs)-1]; t >= last.t0 {
		return last
	}
	i := sort.Search(len(o.segs), func(i int) bool { return o.segs[i].t0 > t })
	if i == 0 {
		return &o.segs[0]
	}
	return &o.segs[i-1]
}

// segOfTick returns the segment containing tick n.
func (o *Oscillator) segOfTick(n uint64) *segment {
	if last := &o.segs[len(o.segs)-1]; n >= last.n0 {
		return last
	}
	i := sort.Search(len(o.segs), func(i int) bool { return o.segs[i].n0 > n })
	if i == 0 {
		return &o.segs[0]
	}
	return &o.segs[i-1]
}

// TickIndex returns the number of full ticks elapsed at true time t
// (i.e. the index of the last tick at or before t). t before the start
// returns 0.
func (o *Oscillator) TickIndex(t float64) uint64 {
	if t <= o.start {
		return 0
	}
	s := o.segAt(t)
	n := s.n0 + uint64((t-s.t0)/s.period)
	// The float division can land one tick low when t is exactly a tick
	// time computed by TimeOfTick (t0 + k·period). Correct so that
	// TickIndex(TimeOfTick(k)) == k holds round-trip, within a few ULPs.
	tol := math.Max(math.Abs(t), 1) * 4e-16
	for s.t0+float64(n+1-s.n0)*s.period <= t+tol {
		n++
	}
	return n
}

// TimeOfTick returns the true time at which tick n occurs.
func (o *Oscillator) TimeOfTick(n uint64) float64 {
	s := o.segOfTick(n)
	return s.t0 + float64(n-s.n0)*s.period
}

// DriftAt returns the fractional frequency deviation in effect at t,
// derived from the actual segment period (so it reflects what the clock
// really experienced, clamps included).
func (o *Oscillator) DriftAt(t float64) float64 {
	s := o.segAt(t)
	return 1/(s.period*o.cfg.NominalHz) - 1
}
