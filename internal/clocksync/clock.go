// Package clocksync implements the interval-based clock synchronization
// algorithm family the NTI hardware was built to support (paper §2):
// the generic round-based algorithm of [SS97] with pluggable convergence
// functions (orthogonal accuracy [Sch97b], Marzullo [Mar84],
// fault-tolerant midpoint [LL84]/[KO87]), interval-based clock
// validation for external time sources [Sch94], the rate
// synchronization of [Scho97], and round-trip transmission-delay
// measurement.
package clocksync

import (
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

// Clock is the device the algorithm steers. *utcsu.UTCSU satisfies it
// through the UTCSUClock adapter; package baseline provides a
// counter-based alternative (the CSU/[KKMS95]-style device of
// experiment E8).
type Clock interface {
	// Now returns the current reading at register granularity.
	Now() timefmt.Stamp
	// Alpha returns the current accuracy registers.
	Alpha() (minus, plus timefmt.Alpha)
	// SetRatePPB commands a rate adjustment relative to nominal.
	SetRatePPB(ppb int64)
	// RatePPB returns the last commanded adjustment.
	RatePPB() int64
	// RateStepPPB reports the achievable rate granularity (the u of the
	// 4G+10u precision impairment, paper §5).
	RateStepPPB() float64
	// Amortize applies a state adjustment via continuous amortization.
	Amortize(delta timefmt.Duration, speedPPM int64)
	// StepTo loads the clock state directly (initial synchronization).
	StepTo(value timefmt.Stamp)
	// SetAlpha loads the accuracy registers.
	SetAlpha(minus, plus timefmt.Duration)
	// SetDriftBoundPPB programs the automatic accuracy deterioration.
	SetDriftBoundPPB(minus, plus int64)
	// GranuleSeconds reports the reading granularity G.
	GranuleSeconds() float64
	// QuantizeStamp coarsens a hardware time/accuracy stamp to the
	// device's timestamp granularity: the UTCSU stamps at the full
	// 2⁻²⁴ s register resolution, a CSU-class device at its µs counter
	// granule. Applied to every stamp the algorithm consumes.
	QuantizeStamp(s timefmt.Stamp) timefmt.Stamp
}

// UTCSUClock adapts *utcsu.UTCSU to the Clock interface.
type UTCSUClock struct {
	*utcsu.UTCSU
}

// GranuleSeconds is the 2⁻²⁴ s register granularity.
func (c UTCSUClock) GranuleSeconds() float64 { return timefmt.Granule }

// QuantizeStamp is the identity: UTCSU stamps already carry the full
// register resolution.
func (c UTCSUClock) QuantizeStamp(s timefmt.Stamp) timefmt.Stamp { return s }

var _ Clock = UTCSUClock{}
