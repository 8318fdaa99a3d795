package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// chain emits one complete flight-path chain for frame fid from node 0
// to node 1, offset by base seconds, with per-hop deltas of 1..7 µs.
func chain(tr *Tracer, fid uint64, base float64, round uint64) {
	t := base
	tr.Emit(KindCSPSend, t, 0, 0, fid, round, 0)
	t += 1e-6
	tr.Emit(KindTxTrigger, t, 0, 0, fid, 0x14, 0)
	t += 2e-6
	tr.Emit(KindFrameTx, t, 0, 0, fid, 64, 57.6e-6)
	t += 3e-6
	tr.Emit(KindFrameRx, t, 1, 0, fid, 0, 0)
	t += 4e-6
	tr.Emit(KindRxTrigger, t, 1, 0, fid, 0x101C, 0)
	t += 5e-6
	tr.Emit(KindRxDone, t, 1, 0, fid, 0x1000, 0)
	t += 6e-6
	tr.Emit(KindCSPArrival, t, 1, 0, fid, round, t)
	t += 7e-6
	tr.Emit(KindRoundUpdate, t, 1, 0, round, 2, 1e-6)
}

func TestFlightPathReconstruction(t *testing.T) {
	tr := New(Options{})
	chain(tr, 1, 0.5, 3)
	chain(tr, 2, 1.5, 4)
	hops := FlightPath(tr.Records())
	if len(hops) != 7 {
		t.Fatalf("%d hops, want 7", len(hops))
	}
	wants := []float64{1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 7e-6}
	for i, h := range hops {
		if h.N != 2 {
			t.Errorf("hop %q: n=%d, want 2", h.Name, h.N)
		}
		for name, got := range map[string]float64{"min": h.MinS, "median": h.MedianS, "max": h.MaxS} {
			if math.Abs(got-wants[i]) > 1e-12 {
				t.Errorf("hop %q %s = %g, want %g", h.Name, name, got, wants[i])
			}
		}
	}
}

func TestFlightPathToleratesIncompleteChains(t *testing.T) {
	tr := New(Options{})
	// A frame that was transmitted but never received (partition).
	tr.Emit(KindCSPSend, 0.5, 0, 0, 1, 3, 0)
	tr.Emit(KindTxTrigger, 0.5001, 0, 0, 1, 0x14, 0)
	tr.Emit(KindFrameLost, 0.5002, 0, 0, 1, 64, 57.6e-6)
	hops := FlightPath(tr.Records())
	if hops[0].N != 1 {
		t.Errorf("send→trigger hop should survive a lost frame, n=%d", hops[0].N)
	}
	for _, h := range hops[2:] {
		if h.N != 0 {
			t.Errorf("hop %q counted a never-delivered frame", h.Name)
		}
	}
}

func TestFaultTimeline(t *testing.T) {
	tr := New(Options{})
	tr.Emit(KindFaultOnset, 60, 2, 0, 0, 2, 0.02)
	tr.Emit(KindFaultClear, 120, 2, 0, 0, 2, 0)
	evs := FaultTimeline(tr.Records())
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	if !evs[0].Onset || evs[0].T != 60 || evs[0].Magnitude != 0.02 || evs[0].FaultKind != 2 {
		t.Errorf("onset mangled: %+v", evs[0])
	}
	if evs[1].Onset || evs[1].T != 120 {
		t.Errorf("recovery mangled: %+v", evs[1])
	}
}

func TestRoundTimeline(t *testing.T) {
	tr := New(Options{})
	tr.Emit(KindRoundUpdate, 1.25, 0, 0, 1, 3, 2e-6)
	tr.Emit(KindRoundFail, 2.25, 0, 0, 2, 1, 0)
	evs := RoundTimeline(tr.Records())
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	if evs[0].Failed || evs[0].Round != 1 || evs[0].Intervals != 3 || evs[0].CorrectionS != 2e-6 {
		t.Errorf("update mangled: %+v", evs[0])
	}
	if !evs[1].Failed || evs[1].Round != 2 {
		t.Errorf("failure mangled: %+v", evs[1])
	}
}

// TestFlightPathKeysFramesByShard merges two shards whose media both
// number their first frame 1: each shard's chain must stay its own, in
// the hop statistics and in the Perfetto flows, while an unsharded
// record keeps its bare frame id as key.
func TestFlightPathKeysFramesByShard(t *testing.T) {
	var shards []*Tracer
	for sh, base := range []float64{0.5, 2.5} {
		tr := New(Options{})
		tr.SetShard(sh)
		chain(tr, 1, base, uint64(3+sh))
		shards = append(shards, tr)
	}
	recs := MergeShards(shards).Records()
	wants := []float64{1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 7e-6}
	for i, h := range FlightPath(recs) {
		if h.N != 2 || math.Abs(h.MaxS-wants[i]) > 1e-12 {
			t.Errorf("hop %q: n=%d max=%g, want n=2 max=%g", h.Name, h.N, h.MaxS, wants[i])
		}
	}

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			ID  uint64 `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	starts := map[uint64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "flight" && ev.Ph == "s" {
			starts[ev.ID] = true
		}
	}
	if len(starts) != 2 {
		t.Errorf("csp flows start with ids %v, want one per shard", starts)
	}
	if r := (Record{A: 7, Shard: -1}); frameKey(&r) != 7 {
		t.Errorf("unsharded frame 7 keys as %d, want 7", frameKey(&r))
	}
}

// TestRoundJoinSkipsDelayProbes: the delay-measurement probes number
// their ping-pong CSPs as rounds 1…12 within the first 12 ms, and the
// real rounds 1…12 update at k+0.25 s on both nodes. A probe arrival
// must join neither the round-update hop nor a Perfetto round flow;
// only the real arrivals at node 1, 7 µs before its updates, do.
func TestRoundJoinSkipsDelayProbes(t *testing.T) {
	tr := New(Options{})
	for k := uint64(1); k <= 12; k++ {
		at := float64(k) * 1e-3
		tr.Emit(KindCSPSend, at, 0, 0, 100+2*k, k, 0)
		tr.Emit(KindCSPArrival, at+60e-6, 1, 0, 100+2*k, k, at)
		tr.Emit(KindCSPSend, at+100e-6, 1, 0, 101+2*k, k, 0)
		tr.Emit(KindCSPArrival, at+160e-6, 0, 0, 101+2*k, k, at)
	}
	for k := uint64(1); k <= 12; k++ {
		chain(tr, k, float64(k)+0.25-21e-6, k)
		tr.Emit(KindRoundUpdate, float64(k)+0.25, 0, 0, k, 2, 0)
	}
	recs := tr.Records()
	hop := FlightPath(recs)[roundStage-1]
	if hop.N != 12 || math.Abs(hop.MaxS-7e-6) > 1e-12 {
		t.Errorf("hop %q: n=%d max=%g s, want n=12 max=7e-06 s", hop.Name, hop.N, hop.MaxS)
	}

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Cat string  `json:"cat"`
			TS  float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "round" {
			continue
		}
		phases[ev.Ph]++
		if ev.TS < 0.5e6 {
			t.Errorf("round flow %q at %g µs: a delay probe joined a round", ev.Ph, ev.TS)
		}
	}
	if phases["s"] != 24 || phases["f"] != 12 || len(phases) != 2 {
		t.Errorf("round flow phases %v, want 12 starts at node 1's arrivals, 12 at node 0's updates and 12 finishes", phases)
	}
}
