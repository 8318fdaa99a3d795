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

// Config describes one oscillator. Zero values give an ideal oscillator.
type Config struct {
	NominalHz float64 // required, e.g. 10e6

	// Systematic calibration offset, drawn once at construction from
	// N(InitOffsetPPM, InitOffsetSigmaPPM).
	InitOffsetPPM      float64
	InitOffsetSigmaPPM float64

	// Random-walk drift: at every UpdateInterval the drift moves by
	// N(0, WalkStepPPM) and is clamped to ±MaxDriftPPM.
	WalkStepPPM   float64
	MaxDriftPPM   float64 // 0 means 100 ppm
	TempAmpPPM    float64 // sinusoidal temperature component amplitude
	TempPeriodS   float64 // its period; 0 disables
	AgingPPMPerDy float64 // linear aging in ppm per day

	UpdateInterval float64 // drift-update period; 0 means 1 s
}

// TCXO returns a typical temperature-compensated crystal configuration
// (paper §3.2 default): ±2 ppm calibration, slow walk, small temperature
// residual.
func TCXO(nominalHz float64) Config {
	return Config{
		NominalHz:          nominalHz,
		InitOffsetSigmaPPM: 1.0,
		WalkStepPPM:        0.002,
		MaxDriftPPM:        5,
		TempAmpPPM:         0.3,
		TempPeriodS:        900,
	}
}

// Ideal returns a drift-free oscillator, useful in unit tests.
func Ideal(nominalHz float64) Config { return Config{NominalHz: nominalHz} }

type segment struct {
	t0     float64 // true time of tick n0
	n0     uint64
	period float64 // true seconds per tick
}

// Oscillator is a single oscillator instance bound to a simulator.
type Oscillator struct {
	cfg      Config
	rng      *sim.RNG
	s        *sim.Simulator
	segs     []segment
	baseOff  float64 // systematic offset (fractional, not ppm)
	walk     float64 // current random-walk value (fractional)
	phase    float64 // temperature phase offset (radians)
	start    float64
	maxDrift float64
}

// New creates an oscillator starting its tick 0 at the current simulated
// time and schedules its drift updates. label individualizes the RNG
// stream.
func New(s *sim.Simulator, cfg Config, label string) *Oscillator {
	if cfg.NominalHz <= 0 {
		panic("oscillator: NominalHz must be positive")
	}
	if cfg.UpdateInterval <= 0 {
		cfg.UpdateInterval = 1
	}
	if cfg.MaxDriftPPM <= 0 {
		cfg.MaxDriftPPM = 100
	}
	rng := s.RNG("osc/" + label)
	o := &Oscillator{
		cfg:      cfg,
		rng:      rng,
		s:        s,
		start:    s.Now(),
		maxDrift: cfg.MaxDriftPPM * 1e-6,
	}
	o.baseOff = (cfg.InitOffsetPPM + cfg.InitOffsetSigmaPPM*rng.Normal(0, 1)) * 1e-6
	o.phase = rng.Float64() * 2 * math.Pi
	o.segs = []segment{{t0: o.start, n0: 0, period: o.periodFor(o.start)}}
	if cfg.WalkStepPPM > 0 || cfg.TempPeriodS > 0 || cfg.AgingPPMPerDy != 0 {
		s.Every(o.start+cfg.UpdateInterval, cfg.UpdateInterval, o.update)
	}
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
	d := o.baseOff + o.walk
	if o.cfg.TempPeriodS > 0 {
		d += o.cfg.TempAmpPPM * 1e-6 * math.Sin(2*math.Pi*(t-o.start)/o.cfg.TempPeriodS+o.phase)
	}
	if o.cfg.AgingPPMPerDy != 0 {
		d += o.cfg.AgingPPMPerDy * 1e-6 * (t - o.start) / 86400
	}
	if d > o.maxDrift {
		d = o.maxDrift
	} else if d < -o.maxDrift {
		d = -o.maxDrift
	}
	return d
}

// update appends a new frequency segment, aligned to a tick boundary.
func (o *Oscillator) update() {
	if o.cfg.WalkStepPPM > 0 {
		o.walk += o.rng.Normal(0, o.cfg.WalkStepPPM) * 1e-6
		// Reflect at the clamp so the walk doesn't stick to the rail.
		lim := o.maxDrift
		if o.walk > lim {
			o.walk = 2*lim - o.walk
		} else if o.walk < -lim {
			o.walk = -2*lim - o.walk
		}
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
