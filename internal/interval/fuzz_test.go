package interval

import (
	"encoding/binary"
	"testing"

	"ntisim/internal/timefmt"
)

// fuzzIvs decodes 8-byte records — reference int32, α⁻ int16, α⁺ int16,
// big-endian, in granules — into at most 64 intervals. The fields are
// taken raw, not through New: negative accuracies (inverted intervals)
// are hostile input too.
func fuzzIvs(data []byte) []Interval {
	var ivs []Interval
	for len(data) >= 8 && len(ivs) < 64 {
		ivs = append(ivs, Interval{
			Ref:   timefmt.Stamp(int32(binary.BigEndian.Uint32(data))),
			Minus: timefmt.Duration(int16(binary.BigEndian.Uint16(data[4:]))),
			Plus:  timefmt.Duration(int16(binary.BigEndian.Uint16(data[6:]))),
		})
		data = data[8:]
	}
	return ivs
}

// hullSplit is the case behind the Marzullo hull fix: n=5, f=2, with
// depth-3 coverage only in [10, 20] and [80, 90]. The fused interval is
// the hull [10, 90], not the leftmost region.
var hullSplit = []Interval{
	{Ref: 10, Minus: 10, Plus: 80},                             // [0, 90]
	{Ref: 15, Minus: 5, Plus: 5}, {Ref: 15, Minus: 5, Plus: 5}, // [10, 20]
	{Ref: 85, Minus: 5, Plus: 5}, {Ref: 85, Minus: 5, Plus: 5}, // [80, 90]
}

// FuzzFuser: on any interval set and any f, every convergence function
// of the zero-alloc Fuser is bit-identical to the brute-force oracle
// (fuser_test.go). Seed inputs live in testdata/fuzz/FuzzFuser and run
// as ordinary tests; hullSplit is disjoint-depth-regions there.
func FuzzFuser(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, f8 int8) {
		var fz Fuser
		checkOracle(t, &fz, fuzzIvs(data), int(f8))
	})
}

func TestMarzulloHullSpansDisjointRegions(t *testing.T) {
	var fz Fuser
	got, ok := fz.Marzullo(hullSplit, 2)
	if !ok || got.Lo() != 10 || got.Hi() != 90 {
		t.Fatalf("Marzullo = %v, %v; want the hull [10, 90]", got, ok)
	}
}
