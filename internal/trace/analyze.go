// Flight-path analysis: reconstruct per-hop latencies of the Fig. 3
// timestamping data path from a record stream, and extract the fault
// onset/recovery timeline. cmd/ntiflight is a thin front-end over
// these.

package trace

import (
	"sort"

	"ntisim/internal/metrics"
)

// Hop names, in data-path order. Every hop is a transition between two
// record kinds matched on the frame id (and receiver node where the
// fan-out makes the hop per-receiver).
var hopNames = []string{
	"csp-send → tx-trigger",      // driver handoff until the COMCO reads the trigger word
	"tx-trigger → frame-tx",      // FIFO prefill vs. serialization start (negative ≈ prefetch lead)
	"frame-tx → frame-rx",        // serialization + propagation
	"frame-rx → rx-trigger",      // bus arbitration before the header DMA
	"rx-trigger → rx-done",       // remaining DMA words until the interrupt
	"rx-done → csp-arrival",      // ISR + task-level kernel latency
	"csp-arrival → round-update", // wait until the convergence instant kP+Δ
}

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

// txTimes are the per-frame sender-side stages.
type txTimes struct {
	send, txTrig, frameTx          float64
	hasSend, hasTxTrig, hasFrameTx bool
}

// rxTimes are the per-(frame, receiver) stages.
type rxTimes struct {
	frameRx, rxTrig, rxDone, arrival             float64
	hasFrameRx, hasRxTrig, hasRxDone, hasArrival bool
	round                                        uint64
}

type frameNode struct {
	frame uint64
	node  int32
}

type nodeRound struct {
	node  int32
	round uint64
}

// FlightPath reconstructs the per-hop latency distributions of the
// CSP data path from a record stream. Incomplete chains (frames that
// fell out of the ring, lost frames, stale rounds) contribute only the
// hops they completed.
func FlightPath(recs []Record) []HopStats {
	tx := map[uint64]*txTimes{}
	rx := map[frameNode]*rxTimes{}
	update := map[nodeRound]float64{}
	txAt := func(f uint64) *txTimes {
		t := tx[f]
		if t == nil {
			t = &txTimes{}
			tx[f] = t
		}
		return t
	}
	rxAt := func(f uint64, n int32) *rxTimes {
		k := frameNode{f, n}
		t := rx[k]
		if t == nil {
			t = &rxTimes{}
			rx[k] = t
		}
		return t
	}
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case KindCSPSend:
			t := txAt(r.A)
			if !t.hasSend {
				t.send, t.hasSend = r.T, true
			}
		case KindTxTrigger:
			t := txAt(r.A)
			if !t.hasTxTrig {
				t.txTrig, t.hasTxTrig = r.T, true
			}
		case KindFrameTx:
			t := txAt(r.A)
			if !t.hasFrameTx {
				t.frameTx, t.hasFrameTx = r.T, true
			}
		case KindFrameRx:
			t := rxAt(r.A, r.Node)
			if !t.hasFrameRx {
				t.frameRx, t.hasFrameRx = r.T, true
			}
		case KindRxTrigger:
			t := rxAt(r.A, r.Node)
			if !t.hasRxTrig {
				t.rxTrig, t.hasRxTrig = r.T, true
			}
		case KindRxDone:
			t := rxAt(r.A, r.Node)
			if !t.hasRxDone {
				t.rxDone, t.hasRxDone = r.T, true
			}
		case KindCSPArrival:
			t := rxAt(r.A, r.Node)
			if !t.hasArrival {
				t.arrival, t.hasArrival = r.T, true
				t.round = r.B
			}
		case KindRoundUpdate:
			k := nodeRound{r.Node, r.A}
			if _, ok := update[k]; !ok {
				update[k] = r.T
			}
		}
	}

	hops := make([][]float64, len(hopNames))
	for _, t := range tx {
		if t.hasSend && t.hasTxTrig {
			hops[0] = append(hops[0], t.txTrig-t.send)
		}
		if t.hasTxTrig && t.hasFrameTx {
			hops[1] = append(hops[1], t.frameTx-t.txTrig)
		}
	}
	for k, t := range rx {
		src := tx[k.frame]
		if src != nil && src.hasFrameTx && t.hasFrameRx {
			hops[2] = append(hops[2], t.frameRx-src.frameTx)
		}
		if t.hasFrameRx && t.hasRxTrig {
			hops[3] = append(hops[3], t.rxTrig-t.frameRx)
		}
		if t.hasRxTrig && t.hasRxDone {
			hops[4] = append(hops[4], t.rxDone-t.rxTrig)
		}
		if t.hasRxDone && t.hasArrival {
			hops[5] = append(hops[5], t.arrival-t.rxDone)
		}
		if t.hasArrival {
			if uT, ok := update[nodeRound{k.node, t.round}]; ok && uT >= t.arrival {
				hops[6] = append(hops[6], uT-t.arrival)
			}
		}
	}

	out := make([]HopStats, len(hopNames))
	for i, name := range hopNames {
		out[i] = hopStats(name, hops[i])
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
