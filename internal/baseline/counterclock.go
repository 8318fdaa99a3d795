// Package baseline implements the comparators the paper measures the
// NTI/UTCSU against:
//
//   - CounterClock: a CSU/[KO87]/[KKMS95]-class counter-based clock with
//     µs granularity, coarse rate steps and no continuous amortization
//     (experiment E8's ablation of the adder-based clock design);
//   - NTPClient: a software-only, WAN-polling client in the style of the
//     Network Time Protocol [Mil91] for the class (III) comparison of
//     experiment E7.
//
// The software-only LAN baselines of experiment E2 need no code here:
// they are the kernel's ModeISR/ModeTask timestamping classes running
// the same synchronization algorithm.
package baseline

import (
	"ntisim/internal/clocksync"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

// CounterClock wraps a UTCSU to behave like the earlier counter-based
// clock synchronization units (paper §5):
//
//   - readings are quantized to a coarse granularity G (~1 µs, the
//     CSU's and [KKMS95]'s clock granularity);
//   - rate adjustments are quantized to steps of u ≈ G per second
//     (paper §5: "they utilize a clock with granularity G = 1 µs" and
//     the achievable precision is impaired by 4G + 10u);
//   - there is no continuous amortization: state corrections are
//     instantaneous steps (the UTCSU feature "not found in alternative
//     approaches").
type CounterClock struct {
	u       *utcsu.UTCSU
	ratePPB int64
}

const (
	// counterGranule is the visible granularity in 2⁻²⁴ s units
	// (≈ 1.01 µs).
	counterGranule timefmt.Stamp = 17
	// counterRateStepPPB is the coarse rate quantum (u ≈ 1 µs/s).
	counterRateStepPPB = 1000
)

// NewCounterClock wraps the UTCSU.
func NewCounterClock(u *utcsu.UTCSU) *CounterClock { return &CounterClock{u: u} }

var _ clocksync.Clock = (*CounterClock)(nil)

// Now returns the reading truncated to the coarse granularity.
func (c *CounterClock) Now() timefmt.Stamp {
	v := c.u.Now()
	return v - v%counterGranule
}

// Alpha passes the accuracy registers through (quantized up to the
// coarse granule so containment still holds under coarser reads).
func (c *CounterClock) Alpha() (timefmt.Alpha, timefmt.Alpha) {
	am, ap := c.u.Alpha()
	g := timefmt.Alpha(counterGranule)
	return am.AddSat(g), ap.AddSat(g)
}

// SetRatePPB quantizes to the device's coarse rate steps.
func (c *CounterClock) SetRatePPB(ppb int64) {
	q := ppb / counterRateStepPPB * counterRateStepPPB
	c.ratePPB = q
	c.u.SetRatePPB(q)
}

// RatePPB returns the last quantized command.
func (c *CounterClock) RatePPB() int64 { return c.ratePPB }

// RateStepPPB reports the coarse quantum — the u in 4G+10u.
func (c *CounterClock) RateStepPPB() float64 { return float64(counterRateStepPPB) }

// Amortize is not available in counter-based designs: the correction is
// applied as an instantaneous step.
func (c *CounterClock) Amortize(delta timefmt.Duration, _ int64) {
	if delta == 0 {
		return
	}
	c.u.StepTo(c.u.Now().Add(delta))
}

// StepTo loads the clock.
func (c *CounterClock) StepTo(v timefmt.Stamp) { c.u.StepTo(v) }

// SetAlpha loads the accuracy registers.
func (c *CounterClock) SetAlpha(minus, plus timefmt.Duration) { c.u.SetAlpha(minus, plus) }

// SetDriftBoundPPB programs deterioration.
func (c *CounterClock) SetDriftBoundPPB(minus, plus int64) { c.u.SetDriftBoundPPB(minus, plus) }

// DutyAt arms a timer; the coarse device fires on its coarse grid.
func (c *CounterClock) DutyAt(target timefmt.Stamp, fn func()) clocksync.Timer {
	return c.u.DutyAt(target, fn)
}

// QuantizeStamp coarsens hardware stamps to the counter granule: a
// CSU-class device timestamps packets with its own µs-level clock.
func (c *CounterClock) QuantizeStamp(s timefmt.Stamp) timefmt.Stamp {
	return s - s%counterGranule
}

// GranuleSeconds reports the coarse G.
func (c *CounterClock) GranuleSeconds() float64 {
	return float64(counterGranule) * timefmt.Granule
}
