package clocksync

import (
	"ntisim/internal/csp"
	"ntisim/internal/discipline"
	"ntisim/internal/interval"
	"ntisim/internal/kernel"
	"ntisim/internal/network"
	"ntisim/internal/telemetry"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
)

// Fixed tunables of the synchronizer. Every run uses these values; the
// paper's parameters (P, Δ, F, the delay bounds, ρ) stay in Params.
const (
	// amortSpeedPPM is the continuous-amortization speed.
	amortSpeedPPM = 5000
	// marginGranules is added to each accuracy on every
	// resynchronization to cover reading/rounding granularity.
	marginGranules timefmt.Duration = 2
	// rateBaselineRounds is the rate-measurement baseline in rounds;
	// longer baselines average out the ε-induced measurement noise.
	rateBaselineRounds = 16
	// rateRhoFloorPPB bounds how far the dynamic drift bound may shrink
	// once rate synchronization has converged.
	rateRhoFloorPPB = 50
)

var (
	// stepThreshold: corrections beyond it use StepTo instead of
	// amortization (initial synchronization).
	stepThreshold = timefmt.DurationFromSeconds(100e-3)
	// staggerSlot offsets each node's broadcast by node-id·slot within
	// the round, de-bursting the medium and the receivers' stamp-move
	// ISRs.
	staggerSlot = timefmt.DurationFromSeconds(200e-6)
	// initAlpha is the accuracy loaded at Start.
	initAlpha = timefmt.DurationFromSeconds(300e-6)
)

// Params configures a Synchronizer.
type Params struct {
	// RoundPeriod is P: CSPs are broadcast when C(t) = kP.
	RoundPeriod timefmt.Duration
	// ComputeDelay is Δ: the convergence function is applied at kP+Δ.
	// It must exceed the worst-case CSP end-to-end latency.
	ComputeDelay timefmt.Duration
	// F is the number of faulty nodes to tolerate.
	F int
	// Discipline selects the clock-discipline algorithm each node runs
	// (see internal/discipline): the factory is invoked once per
	// synchronizer, so one Params value can serve a whole cluster. nil
	// runs the allocation-free orthogonal-accuracy baseline; a bespoke
	// convergence function rides as discipline.WrapConverge. Factories
	// must be pure; campaign clones share them.
	Discipline discipline.Factory
	// DelayMin/DelayMax bound the true delay between the peers'
	// timestamping points, from a priori knowledge or MeasureDelay.
	DelayMin, DelayMax timefmt.Duration
	// RhoPPB is the a priori drift bound used for drift compensation and
	// ACU deterioration.
	RhoPPB int64

	// TrustExternal bypasses interval-based clock validation and adopts
	// external intervals unconditionally — the "questionable undertaking
	// of always trusting the output of a GPS receiver" (paper §5), kept
	// as the naive-trust contrast for experiment E5.
	TrustExternal bool

	// SourceF enables multi-source trust (G-SINC direction): instead of
	// validating each external reference sequentially, the node fuses
	// all of its sources' intervals with fault-tolerant combining
	// (Marzullo edges + fault-tolerant midpoint over the per-source
	// intervals, the zero-alloc Fuser path) tolerating up to SourceF
	// arbitrarily-faulty sources by construction, and sources whose
	// intervals persistently disagree with the node's own result are
	// quarantined for a while. 0 keeps the classic sequential
	// validation path. Ignored under TrustExternal.
	SourceF int

	// RateSync enables the rate-synchronization layer [Scho97].
	RateSync bool
}

// withDefaults fills in zero fields.
func (p Params) withDefaults() Params {
	if p.RoundPeriod == 0 {
		p.RoundPeriod = timefmt.DurationFromSeconds(1)
	}
	if p.ComputeDelay == 0 {
		p.ComputeDelay = p.RoundPeriod / 4
	}
	if p.DelayMax == 0 {
		p.DelayMax = timefmt.DurationFromSeconds(500e-6)
	}
	if p.RhoPPB == 0 {
		p.RhoPPB = 2000
	}
	return p
}

// ExternalFunc supplies an external (e.g. GPS) accuracy interval,
// expressed on the local "now" axis: given the local clock reading now,
// it returns an interval whose Ref is the external estimate of what the
// clock *should* read now. ok=false when no usable fix exists.
type ExternalFunc func(now timefmt.Stamp) (interval.Interval, bool)

// Stats accumulates per-node synchronization statistics.
type Stats struct {
	Rounds            uint64
	CSPsSent          uint64
	CSPsUsed          uint64
	ConvergenceFailed uint64
	Steps             uint64
	Amortizations     uint64
	ExternalAccepted  uint64
	PrimaryAccepted   uint64
	PrimaryRejected   uint64
	ExternalRejected  uint64
	// SourcesRejected counts quarantine entries under multi-source
	// trust: a reference source whose intervals kept disagreeing with
	// the validated result was benched for quarantineRounds.
	SourcesRejected uint64
	// RateCommands counts frequency adjustments commanded by the
	// discipline (distinct from the [Scho97] rate-synchronization
	// layer's own adjustments).
	RateCommands   uint64
	LastCorrection timefmt.Duration
}

// Synchronizer runs the interval-based algorithm on one node.
type Synchronizer struct {
	node *kernel.Node
	clk  Clock
	p    Params

	// disc is the clock discipline this node runs (never nil after
	// New); discID is its stable trace wire ID.
	disc   discipline.Discipline
	discID int

	round     uint32
	collected map[uint32]map[uint16]peerEntry
	rate      *rateSync
	externals []ExternalFunc
	// Multi-source trust state (Params.SourceF > 0): per-source
	// quarantine tracking, the scratch interval set handed to the
	// fault-tolerant source combiner, and its zero-alloc fuser.
	srcStates   []sourceState
	scratchSrcs []interval.Interval
	srcFuser    interval.Fuser
	stats       Stats
	running     bool
	bcastTm     Timer
	compTm      Timer

	// Per-round scratch, reused across converge calls so the steady
	// state allocates nothing: the interval set handed to the
	// discipline, the primary subset, the sorted peer-id order, and a
	// free list of drained per-round collection maps.
	scratchIvs   []interval.Interval
	scratchPrims []interval.Interval
	scratchIDs   []uint16
	freeEntries  []map[uint16]peerEntry
	// primaryUntil: the node advertises FlagPrimary while its round
	// counter is below this (it recently validated an external source).
	primaryUntil uint32
	// rhoNow is the drift bound in effect: the a priori RhoPPB until
	// rate synchronization derives a tighter dynamic bound (§2: bounds
	// "measured — even controlled — dynamically"). It bounds *relative*
	// ensemble drift, so it is applied to peer-interval compensation;
	// the ACU deterioration may use it only while the node's interval is
	// ensemble-framed — once UTC anchoring is in play (own externals or
	// visible primaries) deterioration falls back to the a priori bound,
	// because rate synchronization to the ensemble cannot bound drift
	// versus UTC.
	rhoNow int64
	// primarySeenRound is the last round in which a primary CSP was
	// collected.
	primarySeenRound uint32

	tr *trace.Tracer

	// Telemetry handles from the node's simulator registry;
	// nil-receiver no-ops when off.
	tmRounds    *telemetry.Counter
	tmFailed    *telemetry.Counter
	tmRateCmds  *telemetry.Counter
	tmSrcRej    *telemetry.Counter
	tmWidth     *telemetry.Histogram
	tmCorrOffst *telemetry.Histogram
}

type peerEntry struct {
	iv      interval.Interval // real-time bounds at rx instant, local axis
	rx      timefmt.Stamp     // local clock at rx instant
	primary bool              // sender is anchored to a validated UTC source
}

// New builds a synchronizer for a node steering clk (normally the
// node's own UTCSU wrapped in UTCSUClock) and registers itself as the
// node's CI handler. It observes through the node's simulator: the
// tracer gets round-start, round-update, round-fail and rate-adjust
// records; the registry gets round and convergence-failure counters,
// discipline rate commands, the fused accuracy-interval width histogram
// (post-validation, the quantity the paper's precision bound is about)
// and the applied-correction magnitude histogram.
func New(node *kernel.Node, clk Clock, p Params) *Synchronizer {
	r := node.Sim.Telemetry()
	sy := &Synchronizer{
		node:        node,
		clk:         clk,
		p:           p.withDefaults(),
		collected:   make(map[uint32]map[uint16]peerEntry),
		tr:          node.Sim.Tracer(),
		tmRounds:    r.Counter("sync.rounds"),
		tmFailed:    r.Counter(telemetry.MetricConvergenceFailed),
		tmRateCmds:  r.Counter("sync.rate_commands"),
		tmWidth:     r.Histogram("sync.fused_width_s"),
		tmCorrOffst: r.Histogram("sync.correction_s"),
	}
	if sy.p.SourceF > 0 {
		// Registered only on multi-source nodes: telemetry snapshots
		// serialize every registered metric, so an unconditional
		// registration would change legacy snapshot artifacts.
		sy.tmSrcRej = r.Counter(MetricSourcesRejected)
	}
	if p.Discipline != nil {
		sy.disc = p.Discipline()
	} else {
		// The default is the paper's algorithm through the
		// allocation-free fast path (identical results to
		// interval.OrthogonalAccuracy).
		sy.disc = discipline.NewInterval()
	}
	sy.discID = discipline.ID(sy.disc.Name())
	sy.rhoNow = sy.p.RhoPPB
	if sy.p.RateSync {
		sy.rate = newRateSync(sy.p)
	}
	node.OnCSP(sy.onArrival)
	return sy
}

// Stats returns a copy of the accumulated statistics.
func (sy *Synchronizer) Stats() Stats { return sy.stats }

// ReinstallHandler re-registers the synchronizer as the node's CI
// handler after a MeasureDelay campaign temporarily took it over.
func (sy *Synchronizer) ReinstallHandler() { sy.node.OnCSP(sy.onArrival) }

// HandleArrival feeds one CI arrival into the synchronizer — for
// callers that interpose their own CI handler (e.g. to intercept probe
// packets) and forward the rest.
func (sy *Synchronizer) HandleArrival(ar kernel.Arrival) { sy.onArrival(ar) }

// SetDelayBounds updates the delay-compensation bounds (normally from a
// MeasureDelay campaign) before Start.
func (sy *Synchronizer) SetDelayBounds(b DelayBounds) {
	sy.p.DelayMin, sy.p.DelayMax = b.Min, b.Max
}

// AddExternal registers an external time source consulted at every
// resynchronization through interval-based clock validation.
func (sy *Synchronizer) AddExternal(fn ExternalFunc) {
	sy.externals = append(sy.externals, fn)
}

// Start initializes the interval clock and schedules the first round.
// The clock is left untouched (nodes start unsynchronized); only the
// accuracy registers and deterioration are loaded.
func (sy *Synchronizer) Start() {
	if sy.running {
		return
	}
	sy.running = true
	sy.clk.SetDriftBoundPPB(sy.p.RhoPPB, sy.p.RhoPPB)
	sy.clk.SetAlpha(initAlpha, initAlpha)
	now := sy.clk.Now()
	k := uint32(now/timefmt.Stamp(sy.p.RoundPeriod)) + 1
	sy.round = k
	sy.armBroadcast()
}

// Stop cancels the round timers.
func (sy *Synchronizer) Stop() {
	sy.running = false
	if sy.bcastTm != nil {
		sy.bcastTm.Cancel()
	}
	if sy.compTm != nil {
		sy.compTm.Cancel()
	}
}

func (sy *Synchronizer) roundStart(k uint32) timefmt.Stamp {
	return timefmt.Stamp(k) * timefmt.Stamp(sy.p.RoundPeriod)
}

func (sy *Synchronizer) armBroadcast() {
	k := sy.round
	at := sy.roundStart(k).Add(staggerSlot * timefmt.Duration(sy.node.ID))
	sy.bcastTm = sy.clk.DutyAt(at, func() { sy.broadcast(k) })
}

// broadcast sends this round's CSP and arms the convergence timer. The
// transmit time/accuracy stamp is inserted by the NTI hardware when the
// COMCO fetches the packet.
func (sy *Synchronizer) broadcast(k uint32) {
	if !sy.running {
		return
	}
	p := csp.Packet{Kind: csp.KindCSP, Round: k, RatePPB: int32(sy.clk.RatePPB())}
	if k <= sy.primaryUntil {
		p.Flags |= csp.FlagPrimary
	}
	if sy.tr != nil {
		sy.tr.Emit(trace.KindRoundStart, sy.node.Sim.Now(), int(sy.node.ID), 0, uint64(k), 0, 0)
	}
	sy.node.SendCSP(p, network.Broadcast)
	sy.stats.CSPsSent++
	sy.compTm = sy.clk.DutyAt(sy.roundStart(k).Add(sy.p.ComputeDelay), func() { sy.converge(k) })
	sy.round = k + 1
	sy.armBroadcast()
}

// onArrival preprocesses a received CSP (paper §2, step 2): rebuild the
// sender's interval from the hardware stamps, apply delay compensation,
// and record it together with the local receive stamp for later drift
// compensation.
func (sy *Synchronizer) onArrival(ar kernel.Arrival) {
	if ar.Pkt.Kind != csp.KindCSP || !ar.StampOK {
		return
	}
	tx, ok := ar.Pkt.TxStamp()
	if !ok {
		return // corrupted time information
	}
	// The device's timestamp granularity applies to both stamps (and
	// costs up to one granule of containment; compensate on the low
	// side).
	tx = sy.clk.QuantizeStamp(tx)
	rx := sy.clk.QuantizeStamp(ar.RxStamp)
	g := timefmt.Duration(1)
	if gs := sy.clk.GranuleSeconds(); gs > timefmt.Granule {
		g = timefmt.DurationFromSeconds(gs)
	}
	iv := interval.New(tx, ar.Pkt.TxAlphaM.Duration()+g, ar.Pkt.TxAlphaP.Duration())
	iv = iv.DelayCompensate(sy.p.DelayMin, sy.p.DelayMax)
	m := sy.collected[ar.Pkt.Round]
	if m == nil {
		if n := len(sy.freeEntries); n > 0 {
			m = sy.freeEntries[n-1]
			sy.freeEntries = sy.freeEntries[:n-1]
		} else {
			m = make(map[uint16]peerEntry)
		}
		sy.collected[ar.Pkt.Round] = m
	}
	m[ar.Pkt.Node] = peerEntry{iv: iv, rx: rx, primary: ar.Pkt.Flags&csp.FlagPrimary != 0}
	if sy.rate != nil {
		sy.rate.observe(ar.Pkt.Node, ar.Pkt.Round, tx, rx)
	}
}

// recycle clears a drained per-round collection map and parks it for
// reuse (bounded, so transient round pile-ups don't pin memory).
func (sy *Synchronizer) recycle(m map[uint16]peerEntry) {
	if m == nil || len(sy.freeEntries) >= 4 {
		return
	}
	clear(m)
	sy.freeEntries = append(sy.freeEntries, m)
}

// sortU16 is an in-place insertion sort: the per-round peer sets are
// small and this keeps the hot path free of sort.Slice's closure
// allocation.
func sortU16(a []uint16) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// converge runs step 3 of the generic algorithm at kP+Δ.
func (sy *Synchronizer) converge(k uint32) {
	if !sy.running {
		return
	}
	sy.stats.Rounds++
	sy.tmRounds.Inc()
	now := sy.clk.Now()
	am, ap := sy.clk.Alpha()

	entries := sy.collected[k]
	delete(sy.collected, k)
	// Drop stale rounds that never converged (missed compute windows).
	for r, m := range sy.collected {
		if r+2 < sy.round {
			delete(sy.collected, r)
			sy.recycle(m)
		}
	}

	ivs := sy.scratchIvs[:0]
	prims := sy.scratchPrims[:0]
	// Own interval: the local interval clock as of now.
	ivs = append(ivs, interval.New(now, am.Duration(), ap.Duration()))
	// Peers in ascending node-id order: the interval convergence
	// functions are order-insensitive, but windowed disciplines must
	// see a deterministic sequence regardless of map iteration order.
	ids := sy.scratchIDs[:0]
	for id := range entries {
		ids = append(ids, id)
	}
	sortU16(ids)
	sy.scratchIDs = ids
	for _, id := range ids {
		e := entries[id]
		dt := now.Sub(e.rx)
		if dt < 0 {
			continue // clock stepped across the reception; discard
		}
		iv := e.iv.DriftCompensate(dt, sy.rhoNow)
		ivs = append(ivs, iv)
		if e.primary {
			prims = append(prims, iv)
			sy.primarySeenRound = k
		}
		sy.stats.CSPsUsed++
	}
	sy.recycle(entries)
	sy.scratchIvs = ivs
	sy.scratchPrims = prims

	act, ok := sy.disc.Step(discipline.Sample{Round: k, Now: now, Intervals: ivs, F: sy.p.F})
	if !ok {
		sy.stats.ConvergenceFailed++
		sy.tmFailed.Inc()
		if sy.tr != nil {
			sy.tr.Emit(trace.KindRoundFail, sy.node.Sim.Now(), int(sy.node.ID), 0, uint64(k), uint64(len(ivs)), 0)
		}
		return
	}
	out := act.Interval
	if sy.tr != nil {
		// The discipline decision record: which filter turned this
		// round's len(ivs) samples into which proposed correction —
		// before validation possibly overrides it.
		sy.tr.Emit(trace.KindDiscipline, sy.node.Sim.Now(), int(sy.node.ID), 0,
			uint64(k), uint64(sy.discID), out.Ref.Sub(now).Seconds())
	}

	// Interval-based clock validation [Sch94], two tiers:
	//
	//  1. Remote primaries: CSPs flagged as UTC-anchored carry tight
	//     intervals; their fault-tolerant fusion is accepted only if
	//     consistent with the internal convergence result. This is how
	//     UTC accuracy propagates from few GPS-equipped nodes to the
	//     whole ensemble without trusting any single receiver.
	//  2. Local external sources (own GPS receivers), validated the
	//     same way against the result so far.
	if len(prims) > 0 {
		fp := sy.p.F
		if fp >= len(prims) {
			fp = len(prims) - 1
		}
		if pm, okP := interval.Marzullo(prims, fp); okP {
			validated, accepted := interval.Validate(pm, out)
			if accepted {
				sy.stats.PrimaryAccepted++
				out = validated
			} else {
				sy.stats.PrimaryRejected++
			}
		}
	}
	externalOK := false
	if sy.p.SourceF > 0 && !sy.p.TrustExternal && len(sy.externals) > 0 {
		// Multi-source trust: fault-tolerant combining over all source
		// intervals at once (multisource.go) instead of sequential
		// per-source validation.
		out, externalOK = sy.fuseSources(now, out, k)
	} else {
		for _, ext := range sy.externals {
			eIv, eOK := ext(now)
			if !eOK {
				continue
			}
			if sy.p.TrustExternal {
				// Naive trust: adopt the receiver's word unconditionally.
				sy.stats.ExternalAccepted++
				externalOK = true
				out = eIv
				continue
			}
			validated, accepted := interval.Validate(eIv, out)
			if accepted {
				sy.stats.ExternalAccepted++
				externalOK = true
				out = validated
			} else {
				sy.stats.ExternalRejected++
			}
		}
	}
	if externalOK {
		// Advertise primary status for the next couple of rounds.
		sy.primaryUntil = sy.round + 2
	}

	sy.tmWidth.Observe(out.Hi().Sub(out.Lo()).Seconds())
	sy.enforce(now, out)
	sy.tmCorrOffst.Observe(sy.stats.LastCorrection.Abs().Seconds())
	if sy.tr != nil {
		sy.tr.Emit(trace.KindRoundUpdate, sy.node.Sim.Now(), int(sy.node.ID), 0,
			uint64(k), uint64(len(ivs)), sy.stats.LastCorrection.Seconds())
	}

	if act.RateDeltaPPB != 0 {
		sy.clk.SetRatePPB(sy.clk.RatePPB() + act.RateDeltaPPB)
		sy.stats.RateCommands++
		sy.tmRateCmds.Inc()
		if sy.rate != nil {
			// The rate-sync epoch's stamps now straddle a rate change;
			// restart so its next estimate measures one rate, not two.
			sy.rate.restart()
		}
		if sy.tr != nil {
			sy.tr.Emit(trace.KindRateAdjust, sy.node.Sim.Now(), int(sy.node.ID), 0,
				uint64(k), uint64(sy.discID), float64(act.RateDeltaPPB))
		}
	}

	if sy.rate != nil {
		if corr, rho, ok := sy.rate.apply(k); ok {
			sy.clk.SetRatePPB(sy.clk.RatePPB() + corr)
			sy.rhoNow = rho
			acu := sy.acuRho(k)
			sy.clk.SetDriftBoundPPB(acu, acu)
			if sy.tr != nil {
				sy.tr.Emit(trace.KindRateAdjust, sy.node.Sim.Now(), int(sy.node.ID), 0,
					uint64(k), 0, float64(corr))
			}
		}
	}
}

// acuRho selects the deterioration bound the ACU may use at round k:
// the dynamic (relative) bound only while the node is purely
// ensemble-framed; the honest a priori bound while UTC anchoring is
// active.
func (sy *Synchronizer) acuRho(k uint32) int64 {
	if len(sy.externals) > 0 || (sy.primarySeenRound != 0 && k-sy.primarySeenRound < 4) {
		return sy.p.RhoPPB
	}
	return sy.rhoNow
}

// enforce applies the improved interval to the hardware: the accuracy
// registers are loaded so the interval's real-time edges are preserved
// around the *current* clock value, then the reference correction is
// amortized (the ACU's amortization coupling walks the accuracies back
// as the clock moves; see utcsu.acu).
func (sy *Synchronizer) enforce(now timefmt.Stamp, out interval.Interval) {
	cur := sy.clk.Now() // may differ from `now` by the compute time
	drift := interval.DriftDeterioration(cur.Sub(now), sy.rhoNow)
	lo := out.Lo().Add(-drift - marginGranules)
	hi := out.Hi().Add(drift + marginGranules)
	delta := out.Ref.Sub(cur)
	sy.stats.LastCorrection = delta
	if delta.Abs() >= stepThreshold {
		// Initial synchronization: jump, then centre the accuracies.
		sy.clk.StepTo(out.Ref)
		sy.clk.SetAlpha(out.Ref.Sub(lo), hi.Sub(out.Ref))
		sy.stats.Steps++
		return
	}
	sy.clk.SetAlpha(cur.Sub(lo), hi.Sub(cur))
	sy.clk.Amortize(delta, amortSpeedPPM)
	sy.stats.Amortizations++
}
