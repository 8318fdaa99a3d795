package clocksync

import (
	"cmp"
	"slices"

	"ntisim/internal/interval"
	"ntisim/internal/timefmt"
)

// rateSync implements interval-based clock rate synchronization after
// [Scho97]: each node estimates every peer's clock rate relative to its
// own from the hardware transmit/receive stamps of consecutive CSPs and
// steers its rate towards the fault-tolerant midpoint of the ensemble.
// The residual relative drift after convergence — bounded by the
// measurement noise ε/baseline — replaces the a priori oscillator bound
// in the deterioration logic, which is exactly how the paper proposes to
// reach 1 µs accuracy without high-end oscillators (§2: bounds
// "measured — even controlled — dynamically").
//
// Measurement: for peer q, the stamps (txᵏ, rxᵏ) of round k and the
// stamps of round k−B (B = baseline) give
//
//	rel_q [ppb] = ((txᵏ−txᵏ⁻ᴮ) − (rxᵏ−rxᵏ⁻ᴮ)) · 10⁹ / (rxᵏ−rxᵏ⁻ᴮ)
//
// the peer's rate relative to ours. The correction applied is half the
// fault-tolerant midpoint of {rel_q} ∪ {0} (own rate), which converges
// geometrically while tolerating F faulty peers.
// The loop is epoch-based: stamps are collected for rateBaselineRounds
// rounds, one correction is applied at the epoch boundary, and the
// measurement restarts. Correcting every round against a long baseline
// would feed back corrections that the measurement window has not yet
// seen — a delayed integrator that oscillates and diverges.
type rateSync struct {
	p Params
	// peers holds the epoch's stamps per peer, sorted by node id.
	peers []ratePeer
	// recentCorr holds the last four correction magnitudes, newest
	// last, for the dynamic drift bound.
	recentCorr [4]int64
	rels       []int64 // the epoch's relative rates, reused scratch
	epochStart uint32
	haveEpoch  bool
}

type rateObs struct {
	round  uint32
	tx, rx timefmt.Stamp
}

// ratePeer is one peer's slot in an epoch: the stamps of its first CSP
// and, once a second one came, of its most recent.
type ratePeer struct {
	node        uint16
	first, last rateObs
	haveLast    bool
}

func newRateSync(p Params) *rateSync { return &rateSync{p: p} }

// restart invalidates the current measurement epoch. Called when
// something else (a discipline's rate command) changes the local rate
// mid-epoch: stamps collected before the change no longer describe one
// rate, so an estimate spanning them would be corrupt.
func (r *rateSync) restart() {
	r.peers = r.peers[:0]
	r.haveEpoch = false
}

// observe records the hardware stamps of a received CSP.
func (r *rateSync) observe(node uint16, round uint32, tx, rx timefmt.Stamp) {
	if !r.haveEpoch {
		r.haveEpoch = true
		r.epochStart = round
	}
	o := rateObs{round: round, tx: tx, rx: rx}
	i, seen := slices.BinarySearchFunc(r.peers, node, func(q ratePeer, n uint16) int { return cmp.Compare(q.node, n) })
	if seen {
		r.peers[i].last, r.peers[i].haveLast = o, true
		return
	}
	r.peers = append(r.peers, ratePeer{})
	copy(r.peers[i+1:], r.peers[i:])
	r.peers[i] = ratePeer{node: node, first: o}
}

// apply computes the epoch's rate correction (ppb) and the dynamic
// drift bound; ok is false except at epoch boundaries.
func (r *rateSync) apply(round uint32) (corrPPB, rhoPPB int64, ok bool) {
	if !r.haveEpoch || round < r.epochStart+rateBaselineRounds {
		return 0, 0, false
	}
	rels := append(r.rels[:0], 0) // own rate, relative to itself
	for _, q := range r.peers {
		if !q.haveLast || q.last.round-q.first.round < rateBaselineRounds/2 {
			continue
		}
		dTx := q.last.tx.Sub(q.first.tx)
		dRx := q.last.rx.Sub(q.first.rx)
		if dRx <= 0 {
			continue
		}
		rels = append(rels, (int64(dTx)-int64(dRx))*1_000_000_000/int64(dRx))
	}
	r.rels = rels
	// Restart the measurement window regardless of outcome (the peer
	// slots keep their capacity: steady-state epochs allocate nothing).
	r.restart()
	if len(rels) < 2 {
		return 0, 0, false
	}
	f := interval.DegradeF(len(rels), r.p.F)
	slices.Sort(rels)
	lo, hi := rels[f], rels[len(rels)-1-f]
	corrPPB = (lo + hi) / 2 / 2 // midpoint, applied with gain 1/2
	// Safety clamp: a correction can never exceed the a priori bound.
	if corrPPB > r.p.RhoPPB {
		corrPPB = r.p.RhoPPB
	} else if corrPPB < -r.p.RhoPPB {
		corrPPB = -r.p.RhoPPB
	}

	copy(r.recentCorr[:], r.recentCorr[1:])
	r.recentCorr[len(r.recentCorr)-1] = abs64(corrPPB)
	var peak int64
	for _, c := range r.recentCorr {
		if c > peak {
			peak = c
		}
	}
	// Dynamic drift bound: once corrections are small, the ensemble's
	// relative rates are within ~2·peak; never below the floor, never
	// above the a priori bound.
	rhoPPB = 4 * peak
	if rhoPPB < rateRhoFloorPPB {
		rhoPPB = rateRhoFloorPPB
	}
	if rhoPPB > r.p.RhoPPB {
		rhoPPB = r.p.RhoPPB
	}
	return corrPPB, rhoPPB, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
