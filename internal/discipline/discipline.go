// Package discipline provides pluggable clock-discipline algorithms:
// consumers of one resynchronization round's preprocessed accuracy
// intervals that produce a state correction (and optionally a rate
// adjustment) for the local clock. The paper's interval-based
// convergence functions (interval.OrthogonalAccuracy and friends) are
// one Discipline among peers here, next to the filter/estimator
// families modern time-sync stacks use: a steady-state Kalman offset
// filter, an ntimed-style lucky-sample filter, a Theil-Sen robust
// trend estimator, and a PI/PLL rate controller that can wrap any of
// them.
//
// Every discipline preserves requirement (A) of the paper (§2): the
// returned interval's edges always cover the Marzullo fault-tolerant
// intersection of the inputs, so real-time containment is maintained
// "orthogonally" no matter how the reference point is filtered. What
// varies between disciplines is the dynamics of the reference point —
// and with it precision, noise rejection, and convergence time.
package discipline

import (
	"sort"

	"ntisim/internal/interval"
	"ntisim/internal/timefmt"
)

// Sample is one resynchronization round's preprocessed input.
type Sample struct {
	// Round is the round number k.
	Round uint32
	// Now is the local clock reading at the convergence instant kP+Δ.
	Now timefmt.Stamp
	// Intervals holds the round's accuracy intervals: element 0 is the
	// node's own interval as of Now, the rest are the delay- and
	// drift-compensated peer intervals in ascending node-id order. The
	// backing array is scratch reused across rounds — implementations
	// must not retain it past Step.
	Intervals []interval.Interval
	// F is the number of faulty inputs to tolerate.
	F int
}

// Action is the correction a discipline commands for one round.
type Action struct {
	// Interval is the improved accuracy interval. Its reference point
	// implies the state correction Ref − Sample.Now, applied by the
	// synchronizer through amortization (or a step during initial
	// synchronization); its edges load the accuracy registers.
	Interval interval.Interval
	// RateDeltaPPB is an additional frequency-steering command relative
	// to the clock's current rate; 0 leaves the rate alone.
	RateDeltaPPB int64
}

// Discipline consumes one round's samples at a time and produces
// corrections. Implementations are single-goroutine state: one instance
// belongs to exactly one synchronizer.
type Discipline interface {
	// Name returns the registry name ("interval", "kalman", …).
	Name() string
	// Step consumes one round's sample. ok=false means the round could
	// not be fused (too few consistent inputs) and no correction
	// applies; internal filter state is left untouched in that case.
	Step(s Sample) (Action, bool)
	// Reset discards accumulated filter state (e.g. after the
	// synchronizer stepped the clock across a large offset).
	Reset()
}

// Factory builds a fresh Discipline instance. Factories must be pure so
// one factory can serve every node of a cluster and every cloned cell
// of a campaign grid.
type Factory func() Discipline

// IDCustom is the trace ID reported for disciplines outside the
// registry (e.g. a wrapped custom convergence function).
const IDCustom = 63

// builtins lists the registered disciplines in stable ID order. The
// slice index is the discipline's wire ID in trace records — append
// only, never reorder.
var builtins = []struct {
	name    string
	factory Factory
}{
	// orthogonal-accuracy interval baseline (the paper's CSA)
	{"interval", func() Discipline { return NewInterval() }},
	// steady-state Kalman offset/rate filter over the FT-midpoint measurement
	{"kalman", func() Discipline { return NewKalman() }},
	// ntimed-style lucky-sample pick with exponentially-weighted smoothing
	{"lucky", func() Discipline { return NewLucky() }},
	// Theil-Sen robust trend regression over a sample window
	{"theilsen", func() Discipline { return NewTheilSen() }},
	// PI/PLL rate controller wrapping the Kalman offset filter
	{"pi-kalman", func() Discipline { return NewPIPLL(NewKalman()) }},
	// PI/PLL rate controller wrapping the Theil-Sen estimator
	{"pi-theilsen", func() Discipline { return NewPIPLL(NewTheilSen()) }},
}

// Names lists the registered discipline names in sorted order.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for _, b := range builtins {
		out = append(out, b.name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a discipline name to its factory.
func Lookup(name string) (Factory, bool) {
	for _, b := range builtins {
		if b.name == name {
			return b.factory, true
		}
	}
	return nil, false
}

// ID returns the stable wire ID of a registered discipline name
// (IDCustom when unknown) — the value trace disc-step records carry.
func ID(name string) int {
	for i, b := range builtins {
		if b.name == name {
			return i
		}
	}
	return IDCustom
}

// NameOf resolves a wire ID back to its name ("custom" for IDs outside
// the registry).
func NameOf(id int) string {
	if id >= 0 && id < len(builtins) {
		return builtins[id].name
	}
	return "custom"
}
