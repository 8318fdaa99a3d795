// Package interval implements accuracy-interval arithmetic for
// interval-based clock synchronization (paper §2).
//
// Real time t is represented by an accuracy interval A = [C−α⁻, C+α⁺]
// around a clock value C that must satisfy t ∈ A. The synchronization
// algorithms exchange such intervals, make them compatible (delay and
// drift compensation) and fuse them with a convergence function.
//
// All arithmetic is in the UTCSU's visible granularity (2⁻²⁴ s granules,
// timefmt.Duration/Stamp), matching what the hardware registers can hold.
package interval

import (
	"fmt"

	"ntisim/internal/timefmt"
)

// Interval is an accuracy interval: reference point Ref (a clock reading)
// with non-negative accuracies Minus (α⁻) and Plus (α⁺).
type Interval struct {
	Ref   timefmt.Stamp
	Minus timefmt.Duration
	Plus  timefmt.Duration
}

// New builds an interval, clamping negative accuracies to zero as the
// ACU's zero-masking logic does (paper §3.3).
func New(ref timefmt.Stamp, minus, plus timefmt.Duration) Interval {
	if minus < 0 {
		minus = 0
	}
	if plus < 0 {
		plus = 0
	}
	return Interval{Ref: ref, Minus: minus, Plus: plus}
}

// FromEdges builds an interval spanning [lo, hi] with the reference at a
// given point inside (clamped to the edges if outside).
func FromEdges(lo, hi timefmt.Stamp, ref timefmt.Stamp) Interval {
	if hi < lo {
		hi = lo
	}
	if ref < lo {
		ref = lo
	}
	if ref > hi {
		ref = hi
	}
	return Interval{Ref: ref, Minus: ref.Sub(lo), Plus: hi.Sub(ref)}
}

// Lo returns the lower edge C−α⁻.
func (iv Interval) Lo() timefmt.Stamp { return iv.Ref.Add(-iv.Minus) }

// Hi returns the upper edge C+α⁺.
func (iv Interval) Hi() timefmt.Stamp { return iv.Ref.Add(iv.Plus) }

// Length returns α⁻+α⁺.
func (iv Interval) Length() timefmt.Duration { return iv.Minus + iv.Plus }

// Contains reports whether t lies within the interval (inclusive).
func (iv Interval) Contains(t timefmt.Stamp) bool {
	return iv.Lo() <= t && t <= iv.Hi()
}

// Shift translates the whole interval by d (reference and edges alike).
func (iv Interval) Shift(d timefmt.Duration) Interval {
	iv.Ref = iv.Ref.Add(d)
	return iv
}

// Enlarge grows the interval by extra uncertainty on each side.
func (iv Interval) Enlarge(minus, plus timefmt.Duration) Interval {
	return New(iv.Ref, iv.Minus+minus, iv.Plus+plus)
}

// Rereference moves the reference point to ref, keeping the edges fixed.
// If ref lies outside the interval the nearer accuracy is zero-masked and
// the interval is extended on that side so real-time containment is
// preserved.
func (iv Interval) Rereference(ref timefmt.Stamp) Interval {
	lo, hi := iv.Lo(), iv.Hi()
	if lo > ref {
		lo = ref
	}
	if hi < ref {
		hi = ref
	}
	return Interval{Ref: ref, Minus: ref.Sub(lo), Plus: hi.Sub(ref)}
}

// Intersect returns the intersection of two intervals with the reference
// of iv re-clamped inside, and ok=false if they are disjoint.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo, hi := iv.Lo(), iv.Hi()
	if o := other.Lo(); o > lo {
		lo = o
	}
	if o := other.Hi(); o < hi {
		hi = o
	}
	if hi < lo {
		return Interval{}, false
	}
	return FromEdges(lo, hi, iv.Ref), true
}

// DelayCompensate adapts an interval received in a CSP to the receiving
// node's time base (paper §2 step 2, first operation): the reference is
// advanced by the nominal transmission delay and the edges are enlarged by
// the delay uncertainty. delayMin/delayMax bound the true end-to-end delay
// between the peers' timestamping points.
func (iv Interval) DelayCompensate(delayMin, delayMax timefmt.Duration) Interval {
	if delayMax < delayMin {
		delayMin, delayMax = delayMax, delayMin
	}
	nominal := (delayMin + delayMax) / 2
	out := iv.Shift(nominal)
	return out.Enlarge(nominal-delayMin, delayMax-nominal)
}

// DriftCompensate shifts the interval forward by elapsed local-clock time
// dt and deteriorates both accuracies by the maximum drift the local clock
// may have accumulated meanwhile (paper §2 step 2, second operation).
// rhoPPB is the drift bound in parts per billion.
func (iv Interval) DriftCompensate(dt timefmt.Duration, rhoPPB int64) Interval {
	det := DriftDeterioration(dt, rhoPPB)
	out := iv.Shift(dt)
	return out.Enlarge(det, det)
}

// DriftDeterioration returns ⌈|dt|·ρ⌉ in granules: the accuracy loss of a
// clock with drift bound rhoPPB over a span dt, rounded up so containment
// is conservative.
func DriftDeterioration(dt timefmt.Duration, rhoPPB int64) timefmt.Duration {
	if dt < 0 {
		dt = -dt
	}
	num := int64(dt) * rhoPPB
	d := num / 1_000_000_000
	if num%1_000_000_000 != 0 {
		d++
	}
	return timefmt.Duration(d)
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%v -%v +%v]", iv.Ref, iv.Minus, iv.Plus)
}

// Validate implements interval-based clock validation [Sch94] (paper §2):
// a highly accurate but possibly faulty external interval (e.g. from a
// GPS receiver) is accepted only if it is consistent with the reliable
// validation interval; otherwise the validation interval is returned and
// accepted=false.
func Validate(external, validation Interval) (Interval, bool) {
	x, ok := external.Intersect(validation)
	if !ok {
		return validation, false
	}
	// Consistent: the (much smaller) intersection, referenced as close to
	// the external reference as the intersection permits.
	return x.Rereference(clampStamp(external.Ref, x.Lo(), x.Hi())), true
}

func clampStamp(v, lo, hi timefmt.Stamp) timefmt.Stamp {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
