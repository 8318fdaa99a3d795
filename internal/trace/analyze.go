// Flight-path analysis: reconstruct per-hop latencies of the Fig. 3
// timestamping data path from a record stream, and extract the fault
// onset/recovery timeline. cmd/ntiflight is a thin front-end over
// these.

package trace

import (
	"math"
	"sort"

	"ntisim/internal/metrics"
)

// flightStages is the Fig. 3 data path of one CSP, in order: the
// sender's stages (keyed by frame id), each receiver's (keyed by frame
// id and receiver), then the receiver's round update (keyed by receiver
// and the round its csp-arrival carried). Every adjacent pair is one hop
// of FlightPath, named "a → b"; the frame-keyed stages are also the
// Perfetto flow steps (isFlightPathKind).
var flightStages = [...]Kind{
	KindCSPSend,    // csp-send → tx-trigger: driver handoff until the COMCO reads the trigger word
	KindTxTrigger,  // tx-trigger → frame-tx: FIFO prefill vs. serialization start (negative ≈ prefetch lead)
	KindFrameTx,    // frame-tx → frame-rx: serialization + propagation
	KindFrameRx,    // frame-rx → rx-trigger: bus arbitration before the header DMA
	KindRxTrigger,  // rx-trigger → rx-done: remaining DMA words until the interrupt
	KindRxDone,     // rx-done → csp-arrival: ISR + task-level kernel latency
	KindCSPArrival, // csp-arrival → round-update: wait until the convergence instant kP+Δ
	KindRoundUpdate,
}

const (
	numStages  = len(flightStages)
	rxStage    = 3             // flightStages[rxStage:] are per receiver
	roundStage = numStages - 1 // keyed by (receiver, round), not by frame
)

// stageOf maps a kind to its index in flightStages, -1 if it has none.
var stageOf = func() (ix [numKinds]int) {
	for k := range ix {
		ix[k] = -1
	}
	for i, k := range flightStages {
		ix[k] = i
	}
	return ix
}()

// HopStats summarizes one hop's latency distribution in seconds.
type HopStats struct {
	Name                      string
	N                         int
	MinS, MedianS, P99S, MaxS float64
}

func hopStats(name string, vals []float64) HopStats {
	h := HopStats{Name: name, N: len(vals)}
	if len(vals) == 0 {
		return h
	}
	sort.Float64s(vals)
	h.MinS = vals[0]
	h.MaxS = vals[len(vals)-1]
	h.MedianS = vals[metrics.NearestRank(0.5, len(vals))]
	h.P99S = vals[metrics.NearestRank(0.99, len(vals))]
	return h
}

// stageTimes holds the first record time of each stage of one chain.
type stageTimes struct {
	at    [numStages]float64
	seen  uint16 // bit i: stage i recorded
	round uint64 // the round csp-arrival carried
}

func (t *stageTimes) has(i int) bool { return t.seen&(1<<i) != 0 }

// set records stage i at time v unless an earlier record did.
func (t *stageTimes) set(i int, v float64) {
	if !t.has(i) {
		t.at[i], t.seen = v, t.seen|1<<i
	}
}

// frameNode keys one chain: a frame's sender stages (node = sender) or
// one receiver's stages of it.
type frameNode struct {
	frame uint64 // frameKey
	node  int32
}

// frameKey is the flow key of a frame-keyed record: its frame id, which
// is unique within a shard, tagged with the shard (so ids < 2⁴⁸ and
// shards < 2¹⁵ keep it below the round flows' bit 63). An unsharded
// record (Shard -1) keys by the frame id alone.
func frameKey(r *Record) uint64 {
	if r.Shard < 0 {
		return r.A
	}
	return uint64(r.Shard+1)<<48 | r.A
}

// sender is the node of a frame's sender chain. Its records name a
// medium station (frame-tx) or a node id (csp-send), which can differ,
// so that chain is keyed by the frame alone.
const sender = math.MinInt32

type nodeRound struct {
	node  int32
	round uint64
}

// roundJoin links CSP arrivals to round updates. The round number a
// csp-arrival carries is not unique over a run: the delay-measurement
// probes (clocksync.MeasureDelay) number their ping-pong CSPs 1, 2, …
// before the first real round. An arrival therefore joins its node's
// update of the round it carries only when that update follows it
// within one round period. The trace does not record the period, so
// it is estimated as the median gap between one node's updates of two
// consecutive rounds; with no such pair the period is unbounded.
type roundJoin struct {
	update map[nodeRound]float64 // each (node, round)'s first update time
	period float64
}

// newRoundJoin indexes the round updates of recs and estimates the
// period.
func newRoundJoin(recs []Record) roundJoin {
	j := roundJoin{update: map[nodeRound]float64{}, period: math.Inf(1)}
	for i := range recs {
		if r := &recs[i]; r.Kind == KindRoundUpdate {
			k := nodeRound{r.Node, r.A}
			if _, ok := j.update[k]; !ok {
				j.update[k] = r.T
			}
		}
	}
	var gaps []float64
	for k, t := range j.update {
		if next, ok := j.update[nodeRound{k.node, k.round + 1}]; ok && next > t {
			gaps = append(gaps, next-t)
		}
	}
	if len(gaps) > 0 {
		sort.Float64s(gaps)
		j.period = gaps[metrics.NearestRank(0.5, len(gaps))]
	}
	return j
}

// join returns the update time of node's round and whether an arrival
// at time at that carries round joins that update.
func (j roundJoin) join(node int32, round uint64, at float64) (float64, bool) {
	uT, ok := j.update[nodeRound{node, round}]
	return uT, ok && uT >= at && uT-at <= j.period
}

// FlightPath reconstructs the per-hop latency distributions of the
// CSP data path from a record stream. Incomplete chains (frames that
// fell out of the ring, lost frames, stale rounds) contribute only the
// hops they completed.
func FlightPath(recs []Record) []HopStats {
	chains := map[frameNode]*stageTimes{}
	rounds := newRoundJoin(recs)
	for i := range recs {
		r := &recs[i]
		st := stageOf[r.Kind]
		if st < 0 || st == roundStage {
			continue
		}
		k := frameNode{frameKey(r), r.Node}
		if st < rxStage {
			k.node = sender
		}
		t := chains[k]
		if t == nil {
			t = &stageTimes{}
			chains[k] = t
		}
		if r.Kind == KindCSPArrival && !t.has(st) {
			t.round = r.B
		}
		t.set(st, r.T)
	}

	hops := make([][]float64, numStages-1)
	addHops := func(t *stageTimes, from, to int) {
		for i := from; i < to; i++ {
			if t.has(i) && t.has(i+1) {
				hops[i] = append(hops[i], t.at[i+1]-t.at[i])
			}
		}
	}
	for k, t := range chains {
		if k.node == sender {
			addHops(t, 0, rxStage-1)
			continue
		}
		// One receiver's whole chain: the sender's last stage, this
		// receiver's stages, and the round update the arrival joins.
		c := *t
		if src := chains[frameNode{k.frame, sender}]; src != nil && src.has(rxStage-1) {
			c.set(rxStage-1, src.at[rxStage-1])
		}
		if c.has(roundStage - 1) {
			if uT, ok := rounds.join(k.node, c.round, c.at[roundStage-1]); ok {
				c.set(roundStage, uT)
			}
		}
		addHops(&c, rxStage-1, numStages-1)
	}

	out := make([]HopStats, len(hops))
	for i := range hops {
		out[i] = hopStats(flightStages[i].String()+" → "+flightStages[i+1].String(), hops[i])
	}
	return out
}

// FaultEvent is one GPS fault onset or recovery.
type FaultEvent struct {
	T         float64
	Node      int32
	FaultKind uint64 // gps.FaultKind ordinal
	Onset     bool
	Magnitude float64
}

// FaultTimeline extracts the fault onset/recovery events in time
// order.
func FaultTimeline(recs []Record) []FaultEvent {
	var out []FaultEvent
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case KindFaultOnset:
			out = append(out, FaultEvent{T: r.T, Node: r.Node, FaultKind: r.B, Onset: true, Magnitude: r.V})
		case KindFaultClear:
			out = append(out, FaultEvent{T: r.T, Node: r.Node, FaultKind: r.B})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// RoundTimeline lists (node, round, correction) of every round update
// in emission order — the convergence history ntiflight prints.
type RoundEvent struct {
	T           float64
	Node        int32
	Round       uint64
	Intervals   uint64
	CorrectionS float64
	Failed      bool
	// DisciplineID is the clock discipline that produced this round's
	// correction (disc-step record, discipline.NameOf maps it back);
	// -1 when the trace predates discipline records.
	DisciplineID int
	// ProposedS is the discipline's proposed correction before clock
	// validation (meaningful only when DisciplineID >= 0).
	ProposedS float64
}

// RoundTimeline extracts round updates and failures in order,
// annotating each update with the disc-step record of the same
// (node, round) when present.
func RoundTimeline(recs []Record) []RoundEvent {
	type disc struct {
		id       int
		proposed float64
	}
	steps := map[nodeRound]disc{}
	for i := range recs {
		r := &recs[i]
		if r.Kind == KindDiscipline {
			k := nodeRound{r.Node, r.A}
			if _, ok := steps[k]; !ok {
				steps[k] = disc{id: int(r.B), proposed: r.V}
			}
		}
	}
	var out []RoundEvent
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case KindRoundUpdate:
			e := RoundEvent{T: r.T, Node: r.Node, Round: r.A, Intervals: r.B, CorrectionS: r.V, DisciplineID: -1}
			if d, ok := steps[nodeRound{r.Node, r.A}]; ok {
				e.DisciplineID, e.ProposedS = d.id, d.proposed
			}
			out = append(out, e)
		case KindRoundFail:
			out = append(out, RoundEvent{T: r.T, Node: r.Node, Round: r.A, Intervals: r.B, Failed: true, DisciplineID: -1})
		}
	}
	return out
}
