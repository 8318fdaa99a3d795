// Package analysis implements the closed-form bounds the paper's
// argument rests on (§3.1, §5), so experiments can print measured values
// next to the theory they are supposed to respect.
//
// Sources, kept deliberately minimal:
//
//   - the Lundelius–Lynch lower bound [LL84]: n ideal clocks cannot be
//     synchronized better than ε·(1−1/n) in the worst case, where ε is
//     the transmission/reception uncertainty (§3.1);
//   - the granularity impairment of the orthogonal accuracy convergence
//     function [Sch97b]: clock granularity G and rate-adjustment
//     uncertainty u cost 4G + 10u of worst-case precision, with
//     u = 1/fosc for the adder-based clock (§5);
//   - a first-order worst-case precision budget assembling the terms the
//     paper enumerates. It is a *budget*, not a verified theorem: each
//     term is individually justified, their sum is conservative.
package analysis

import "ntisim/internal/timefmt"

// LundeliusLynchLowerBound returns the best worst-case precision any
// algorithm can achieve for n nodes with transmission/reception
// uncertainty epsS: ε·(1−1/n) [LL84].
func LundeliusLynchLowerBound(epsS float64, n int) float64 {
	if n < 2 {
		return 0
	}
	return epsS * (1 - 1/float64(n))
}

// GranularityImpairment returns the 4G+10u worst-case precision cost of
// the OA convergence function (§5) for a clock with reading granularity
// gS and rate-adjustment uncertainty uS.
func GranularityImpairment(gS, uS float64) float64 { return 4*gS + 10*uS }

// AdderClockRateUncertainty returns u for the UTCSU's adder-based
// clock: one oscillator granule, 1/fosc (§5, citing [SS97 §3.1]).
func AdderClockRateUncertainty(foscHz float64) float64 { return 1 / foscHz }

// Budget describes a synchronization configuration for the first-order
// worst-case precision budget.
type Budget struct {
	// EpsS is the transmission/reception uncertainty (measured or E1).
	EpsS float64
	// GranuleS is the clock reading granularity G.
	GranuleS float64
	// RateUncS is the rate-adjustment uncertainty u.
	RateUncS float64
	// RhoPPB is the (dynamic or a priori) relative drift bound.
	RhoPPB float64
	// RoundS is the resynchronization period P plus the compute offset.
	RoundS float64
	// DelayWindowS is dmax−dmin of the delay-compensation bounds: the
	// systematic asymmetry the algorithm cannot observe.
	DelayWindowS float64
}

// WorstCasePrecision sums the budget's terms:
//
//	ε  — per-CSP stamp uncertainty,
//	4G+10u — convergence-function granularity impairment,
//	2ρ(P+Δ) — relative drift accumulated between resynchronizations,
//	(dmax−dmin)/2 — unobservable delay asymmetry.
//
// Measured precision must not exceed it; typical-case precision is well
// below. Only TestBudgetDominatesMeasured checks that, on one 8-node
// default cluster. No experiment calls it: E3 and E8 use the 4G+10u
// term alone, through GranularityImpairment.
func (b Budget) WorstCasePrecision() float64 {
	return b.EpsS +
		GranularityImpairment(b.GranuleS, b.RateUncS) +
		2*b.RhoPPB*1e-9*b.RoundS +
		b.DelayWindowS/2
}

// PrototypeBudget returns the budget of the repository's default
// prototype configuration (10 MHz UTCSU, measured ε and delay bounds,
// 1 s rounds, 2 ppm drift bound).
func PrototypeBudget() Budget {
	return Budget{
		EpsS:         0.7e-6,
		GranuleS:     timefmt.Granule,
		RateUncS:     AdderClockRateUncertainty(10e6),
		RhoPPB:       2000,
		RoundS:       1.25,
		DelayWindowS: 1e-6,
	}
}
