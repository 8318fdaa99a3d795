package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzJSONLRoundTrip: over every valid kind and finite T/V, WriteJSONL
// followed by ReadJSONL returns the record unchanged, and an unsharded
// record (shard -1) carries no shard field on the wire. Seed inputs live
// in testdata/fuzz/FuzzJSONLRoundTrip and run as ordinary tests.
func FuzzJSONLRoundTrip(f *testing.F) {
	f.Add(uint8(KindFrameTx), 0.5002, uint64(2), uint64(1), uint64(64), 57.6e-6, int32(0), int16(-1), int8(0))
	f.Fuzz(func(t *testing.T, kind uint8, tm float64, seq, a, b uint64, v float64, node int32, shard int16, ch int8) {
		if math.IsNaN(tm) || math.IsInf(tm, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("non-finite T/V have no JSON encoding")
		}
		if shard < -1 {
			shard = -1 // every negative tag means unsharded; -1 is its canonical form
		}
		rec := Record{
			T: tm, Seq: seq, A: a, B: b, V: v,
			Node: node, Shard: shard, Ch: ch, Kind: Kind(kind % uint8(numKinds)),
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []Record{rec}); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		if shard == -1 && bytes.Contains(buf.Bytes(), []byte(`"shard"`)) {
			t.Fatalf("unsharded record carries a shard field: %s", buf.Bytes())
		}
		back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSONL(%s): %v", buf.Bytes(), err)
		}
		if len(back) != 1 || back[0] != rec {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v\nwire %s", back, rec, buf.Bytes())
		}
	})
}

// FuzzReadJSONL: arbitrary input yields records or an error, never a
// panic, and whatever parses names a known kind. Seed inputs live in
// testdata/fuzz/FuzzReadJSONL and run as ordinary tests.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"seq":0,"t":0.5,"k":"csp-send","node":0,"a":1,"b":3}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Kind >= numKinds {
				t.Fatalf("parsed an unknown kind %d from %q", r.Kind, data)
			}
		}
	})
}
