package trace

import (
	"testing"
)

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindFrameTx, 1, 0, 0, 1, 64, 57e-6) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records() != nil {
		t.Error("nil tracer not a clean no-op")
	}
	if o := tr.Options(); o.DMAWords || o.RingCap != 0 {
		t.Errorf("nil tracer options = %+v, want zero", o)
	}
}

func TestEmitOrderAndPayload(t *testing.T) {
	tr := New(Options{})
	tr.Emit(KindRoundStart, 1.0, 0, 0, 7, 0, 0)
	tr.Emit(KindFrameTx, 1.1, 1, 0, 3, 64, 57e-6)
	tr.Emit(KindFrameRx, 1.2, -1, 0, 42, 0, 0)
	tr.Emit(KindFaultOnset, 1.3, 2, 1, 0, 4, 0.02)

	recs := tr.Records()
	if len(recs) != 4 || tr.Len() != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Errorf("record %d: seq %d — Records must be in emission order", i, r.Seq)
		}
	}
	r := recs[1]
	if r.Kind != KindFrameTx || r.T != 1.1 || r.Node != 1 || r.A != 3 || r.B != 64 || r.V != 57e-6 {
		t.Errorf("payload mangled: %+v", r)
	}
	if recs[3].Ch != 1 {
		t.Errorf("channel lost: %+v", recs[3])
	}
	if recs[2].Node != -1 {
		t.Errorf("negative node id lost: %+v", recs[2])
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(Options{RingCap: 8})
	for i := 0; i < 20; i++ {
		tr.Emit(KindFrameTx, float64(i), 0, 0, uint64(i), 0, 0)
	}
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want ring cap 8", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	recs := tr.Records()
	for i, r := range recs {
		if want := uint64(12 + i); r.Seq != want {
			t.Errorf("record %d: seq %d, want %d (oldest overwritten first)", i, r.Seq, want)
		}
	}
}

func TestPerNodeRingsMergeBySeq(t *testing.T) {
	tr := New(Options{RingCap: 4})
	// Interleave two nodes; each ring holds only its node's records.
	for i := 0; i < 6; i++ {
		tr.Emit(KindFrameTx, float64(i), i%2, 0, uint64(i), 0, 0)
	}
	recs := tr.Records()
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("merge not in seq order: %d after %d", recs[i].Seq, recs[i-1].Seq)
		}
	}
}

// TestEmitZeroAlloc pins the hot-path contract: after a node's first
// record, Emit allocates nothing; a nil tracer never allocates.
func TestEmitZeroAlloc(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		nilTr.Emit(KindFrameTx, 1, 0, 0, 1, 64, 0)
	}); n != 0 {
		t.Errorf("nil tracer Emit: %v allocs/op, want 0", n)
	}

	tr := New(Options{RingCap: 64})
	tr.Emit(KindFrameTx, 0, 0, 0, 0, 0, 0) // warm the node-0 ring
	if n := testing.AllocsPerRun(100, func() {
		tr.Emit(KindFrameTx, 1, 0, 0, 1, 64, 57e-6)
	}); n != 0 {
		t.Errorf("warm-ring Emit: %v allocs/op, want 0", n)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no wire name", k)
		}
		back, ok := KindFromName(name)
		if !ok || back != k {
			t.Errorf("KindFromName(%q) = %v,%v, want %v", name, back, ok, k)
		}
	}
	if _, ok := KindFromName("no-such-kind"); ok {
		t.Error("unknown name resolved")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{T: 0.5, Node: 1, Kind: KindRxTrigger, A: 3, B: 0x101C}
	s := r.String()
	for _, want := range []string{"rx-trigger", "frame=3", "addr=0x0101C", "node=1"} {
		if !contains(s, want) {
			t.Errorf("Record.String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
