// Package gps models GPS timing receivers and their failure modes.
//
// A receiver emits a one-pulse-per-second (1pps) signal marking the
// exact begin of each UTC second (paper §3.3: the GPU units timestamp
// it) plus a serial time-of-day message identifying which second the
// pulse belongs to; the model delivers that label with the pulse
// (Pulse.LabelSec) instead of encoding serial sentences. Real receivers
// are accurate to ~100 ns–1 µs but are **not trustworthy**: the
// authors' own two-month evaluation of six receivers [HS97] "revealed a
// wide variety of failures", which is why interval-based clock
// validation exists. The fault injector reproduces the failure classes
// that study motivates: outages, offset steps, wrong-second (off-by-N)
// pulses, and flapping.
package gps

import (
	"fmt"
	"math"

	"ntisim/internal/sim"
	"ntisim/internal/trace"
)

// FaultKind enumerates injectable receiver faults.
type FaultKind int

const (
	FaultNone      FaultKind = iota
	FaultOutage              // no pulses for a while
	FaultOffset              // pulses shifted by a constant error
	FaultWrongSec            // pulse labelled with the wrong second (off-by-N)
	FaultFlapping            // alternating good/garbage pulses
	FaultRampDrift           // pulse error growing over time
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultOutage:
		return "outage"
	case FaultOffset:
		return "offset"
	case FaultWrongSec:
		return "wrong-second"
	case FaultFlapping:
		return "flapping"
	case FaultRampDrift:
		return "ramp-drift"
	}
	return "unknown"
}

// Fault describes one injected failure episode.
type Fault struct {
	Kind  FaultKind
	Start float64 // simulated time the episode begins
	End   float64 // and ends (0 = forever)
	// Magnitude: seconds for FaultOffset (the step), seconds/second for
	// FaultRampDrift, whole seconds for FaultWrongSec (the off-by-N).
	Magnitude float64
}

// Config parameterizes a receiver: the failure episodes injected into
// it. The zero value is a healthy receiver.
type Config struct {
	Faults []Fault
}

// DefaultReceiver returns a healthy mid-90s timing receiver.
func DefaultReceiver() Config { return Config{} }

// ClaimedAccuracyS is a receiver's claimed 1-sigma accuracy, what the
// clock-sync layer uses as the external interval half-width.
const ClaimedAccuracyS = 1e-6

// sawtoothS is the amplitude of the classic receiver sawtooth error
// (oscillator granularity of the receiver itself): pulses carry a
// uniform error in ±sawtoothS.
const sawtoothS = 200e-9

// Pulse is one 1pps event as delivered to a node.
type Pulse struct {
	// TrueTime is when the pulse physically occurred (simulation truth).
	TrueTime float64
	// LabelSec is the UTC second the serial message claims the pulse
	// marks. For a healthy receiver, TrueTime ≈ LabelSec.
	LabelSec int64
	// Valid is the receiver's own health flag (lost lock etc.); faulty
	// receivers may assert it wrongly.
	Valid bool
}

// Receiver is one simulated GPS timing receiver.
type Receiver struct {
	s   *sim.Simulator
	cfg Config
	rng *sim.RNG
	out func(Pulse)

	tr        *trace.Tracer
	trNode    int
	lastFault FaultKind
}

// New creates a receiver whose pulses are delivered to out. Pulses start
// at the next whole simulated second after start. The receiver traces
// through the simulator's tracer, attributing fault-onset and
// fault-clear records to node id `node` at the pulse-generator
// granularity (1 s). It panics on a wrong-second fault whose magnitude
// is not a nonzero whole number of seconds: the label shift truncates
// to an integer, so such a fault would silently inject nothing.
func New(s *sim.Simulator, cfg Config, label string, node int, out func(Pulse)) *Receiver {
	for _, f := range cfg.Faults {
		if f.Kind == FaultWrongSec && (f.Magnitude == 0 || f.Magnitude != math.Trunc(f.Magnitude)) {
			panic(fmt.Sprintf("gps: wrong-second fault magnitude %v is not a nonzero whole number of seconds", f.Magnitude))
		}
	}
	r := &Receiver{s: s, cfg: cfg, rng: s.RNG("gps/" + label), out: out, tr: s.Tracer(), trNode: node}
	// The generator runs `lead` ahead of each second so pulses with
	// negative errors can still be delivered at their physical time.
	start := float64(int64(s.Now())+1) + 1 - pulseLead
	s.Every(start, 1.0, r.emit)
	return r
}

// pulseLead is how far ahead of the nominal second the pulse generator
// wakes up; it bounds the earliest deliverable pulse error.
const pulseLead = 0.05

func (r *Receiver) activeFault() *Fault {
	now := r.s.Now()
	for i := range r.cfg.Faults {
		f := &r.cfg.Faults[i]
		if now >= f.Start && (f.End == 0 || now < f.End) {
			return f
		}
	}
	return nil
}

func (r *Receiver) emit() {
	sec := int64(r.s.Now() + pulseLead + 0.5) // the second this pulse marks
	err := r.rng.Uniform(-sawtoothS, sawtoothS)
	label := sec
	valid := true
	f := r.activeFault()
	// Fault-episode transitions, observed at pulse granularity. Purely
	// passive: no RNG draw, no scheduling — tracing cannot perturb the
	// simulation.
	cur, mag := FaultNone, 0.0
	if f != nil {
		cur, mag = f.Kind, f.Magnitude
	}
	if cur != r.lastFault {
		if r.tr != nil {
			if r.lastFault != FaultNone {
				r.tr.Emit(trace.KindFaultClear, r.s.Now(), r.trNode, 0, 0, uint64(r.lastFault), 0)
			}
			if cur != FaultNone {
				r.tr.Emit(trace.KindFaultOnset, r.s.Now(), r.trNode, 0, 0, uint64(cur), mag)
			}
		}
		r.lastFault = cur
	}
	if f != nil {
		switch f.Kind {
		case FaultOutage:
			return // no pulse at all
		case FaultOffset:
			err += f.Magnitude
		case FaultWrongSec:
			label += int64(f.Magnitude)
		case FaultFlapping:
			if r.rng.Bool(0.5) {
				err += r.rng.Uniform(-f.Magnitude, f.Magnitude)
			}
		case FaultRampDrift:
			err += f.Magnitude * (r.s.Now() - f.Start)
		}
	}
	wait := pulseLead + err
	if wait < 0 {
		wait = 0 // error beyond the lead window: clamp to "now"
	}
	p := Pulse{TrueTime: float64(sec) + err, LabelSec: label, Valid: valid}
	r.s.After(wait, func() {
		if r.out != nil {
			r.out(p)
		}
	})
}
