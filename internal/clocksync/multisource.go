package clocksync

import (
	"ntisim/internal/interval"
	"ntisim/internal/timefmt"
)

// Multi-source trust (Params.SourceF > 0): instead of validating each
// external reference sequentially — where a believable early liar can
// narrow the result before honest sources are heard — the node collects
// all of its sources' intervals and combines them with the
// fault-tolerant convergence function (Marzullo intersection edges,
// fault-tolerant-midpoint reference, on the zero-alloc Fuser). With
// 2f+1 sources of which at most f lie arbitrarily, the combined
// interval contains true time by construction [Marzullo's theorem], so
// a spoofed GNSS feed cannot steer the node while a majority of its
// references stay honest — the G-SINC property, applied at the
// reference-source tier.
//
// On top of the per-round combining, a cheap reputation filter: a
// source whose interval keeps failing interval-based validation against
// the node's own result for quarantineAfter consecutive rounds is
// benched for quarantineRounds (counted in Stats.SourcesRejected and
// the sync.sources_rejected telemetry counter). Quarantine keeps a
// persistent liar from dragging the fused midpoint around within the
// tolerance the intersection allows it.

// MetricSourcesRejected is the telemetry counter of quarantine entries
// under multi-source trust. It is registered only on nodes with
// SourceF > 0 so single-source snapshot streams keep their exact
// legacy metric set.
const MetricSourcesRejected = "sync.sources_rejected"

const (
	// quarantineAfter is the consecutive-rejection streak that benches
	// a source.
	quarantineAfter = 3
	// quarantineRounds is how many rounds a benched source sits out.
	quarantineRounds = 16
)

// sourceState is the per-reference-source reputation record.
type sourceState struct {
	rejectStreak     int
	quarantinedUntil uint32
}

// fuseSources runs the multi-source combining tier of round k against
// the internal convergence result `out`. It returns the (possibly
// improved) interval and whether any external evidence was accepted
// (which makes the node advertise FlagPrimary, exactly like the
// sequential path).
func (sy *Synchronizer) fuseSources(now timefmt.Stamp, out interval.Interval, k uint32) (interval.Interval, bool) {
	if sy.srcStates == nil {
		sy.srcStates = make([]sourceState, len(sy.externals))
	}
	ivs := sy.scratchSrcs[:0]
	for i, ext := range sy.externals {
		st := &sy.srcStates[i]
		eIv, eOK := ext(now)
		if !eOK {
			// No fix is not evidence of lying (outages are benign);
			// the streak neither grows nor resets.
			continue
		}
		if _, ok := interval.Validate(eIv, out); ok {
			st.rejectStreak = 0
		} else {
			st.rejectStreak++
			if st.rejectStreak >= quarantineAfter && k >= st.quarantinedUntil {
				st.quarantinedUntil = k + quarantineRounds
				sy.stats.SourcesRejected++
				sy.tmSrcRej.Inc()
			}
		}
		if k < st.quarantinedUntil {
			continue
		}
		ivs = append(ivs, eIv)
	}
	sy.scratchSrcs = ivs[:0]
	if len(ivs) == 0 {
		return out, false
	}
	// Fault-tolerant combining across the surviving sources. SourceF is
	// the design bound; with fewer than 2f+1 sources currently usable,
	// degrade gracefully the way every convergence function here does.
	fused, ok := sy.fz.OrthogonalAccuracy(ivs, sy.p.SourceF)
	if !ok {
		// Sources mutually inconsistent beyond f faults: no external
		// evidence is trustworthy this round.
		sy.stats.ExternalRejected++
		return out, false
	}
	// The combined interval is still subject to interval-based clock
	// validation against the internal result, like any single source
	// on the classic path.
	validated, accepted := interval.Validate(fused, out)
	if !accepted {
		sy.stats.ExternalRejected++
		return out, false
	}
	sy.stats.ExternalAccepted++
	return validated, true
}
