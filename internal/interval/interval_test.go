package interval

import (
	"testing"
	"testing/quick"

	"ntisim/internal/timefmt"
)

func st(s float64) timefmt.Stamp         { return timefmt.Stamp(timefmt.DurationFromSeconds(s)) }
func dur(s float64) timefmt.Duration     { return timefmt.DurationFromSeconds(s) }
func ivl(ref, m, p float64) Interval     { return New(st(ref), dur(m), dur(p)) }
func edges(lo, hi float64) Interval      { return FromEdges(st(lo), st(hi), st((lo+hi)/2)) }
func approx(a, b timefmt.Stamp) bool     { d := a.Sub(b); return d.Abs() <= 1 }
func approxD(a, b timefmt.Duration) bool { return (a - b).Abs() <= 1 }

// points builds zero-width intervals at the given times: inputs whose
// reference points are all that FTMidpoint and FTAverage read.
func points(refs ...float64) []Interval {
	ivs := make([]Interval, len(refs))
	for i, r := range refs {
		ivs[i] = ivl(r, 0, 0)
	}
	return ivs
}

func TestNewClampsNegative(t *testing.T) {
	iv := New(st(1), -5, -7)
	if iv.Minus != 0 || iv.Plus != 0 {
		t.Errorf("negative accuracies not clamped: %+v", iv)
	}
}

func TestEdgesAndContains(t *testing.T) {
	iv := ivl(10, 1, 2)
	if !approx(iv.Lo(), st(9)) || !approx(iv.Hi(), st(12)) {
		t.Errorf("edges wrong: lo=%v hi=%v", iv.Lo(), iv.Hi())
	}
	if !iv.Contains(st(9.5)) || !iv.Contains(st(12)) || iv.Contains(st(8.9)) || iv.Contains(st(12.1)) {
		t.Error("Contains wrong")
	}
	if !approxD(iv.Length(), dur(3)) {
		t.Errorf("Length = %v", iv.Length())
	}
}

func TestFromEdgesClampsRef(t *testing.T) {
	iv := FromEdges(st(5), st(7), st(100))
	if iv.Ref != st(7) {
		t.Errorf("ref not clamped to hi: %v", iv.Ref)
	}
	iv = FromEdges(st(5), st(7), st(0))
	if iv.Ref != st(5) {
		t.Errorf("ref not clamped to lo: %v", iv.Ref)
	}
	// Inverted edges collapse.
	iv = FromEdges(st(7), st(5), st(6))
	if iv.Length() != 0 {
		t.Errorf("inverted edges should collapse: %+v", iv)
	}
}

func TestShiftEnlarge(t *testing.T) {
	iv := ivl(10, 1, 1).Shift(dur(5))
	if !approx(iv.Ref, st(15)) || !approx(iv.Lo(), st(14)) {
		t.Errorf("Shift wrong: %+v", iv)
	}
	iv = iv.Enlarge(dur(1), dur(2))
	if !approxD(iv.Minus, dur(2)) || !approxD(iv.Plus, dur(3)) {
		t.Errorf("Enlarge wrong: %+v", iv)
	}
}

func TestRereferencePreservesEdges(t *testing.T) {
	iv := ivl(10, 2, 2)
	r := iv.Rereference(st(11))
	if !approx(r.Lo(), iv.Lo()) || !approx(r.Hi(), iv.Hi()) {
		t.Errorf("edges moved: %+v vs %+v", r, iv)
	}
	if r.Ref != st(11) {
		t.Errorf("ref = %v", r.Ref)
	}
	// Outside: interval extends to keep containment.
	r = iv.Rereference(st(20))
	if !approx(r.Lo(), iv.Lo()) || !approx(r.Hi(), st(20)) || r.Plus != 0 {
		t.Errorf("outside rereference wrong: %+v", r)
	}
}

func TestIntersect(t *testing.T) {
	a := edges(1, 5)
	b := edges(4, 9)
	x, ok := a.Intersect(b)
	if !ok || !approx(x.Lo(), st(4)) || !approx(x.Hi(), st(5)) {
		t.Errorf("intersect = %+v ok=%v", x, ok)
	}
	_, ok = edges(1, 2).Intersect(edges(3, 4))
	if ok {
		t.Error("disjoint intervals intersected")
	}
	// Touching intervals intersect in a point.
	x, ok = edges(1, 3).Intersect(edges(3, 5))
	if !ok || x.Length() != 0 {
		t.Errorf("touching intersect = %+v ok=%v", x, ok)
	}
}

func TestDelayCompensatePreservesContainment(t *testing.T) {
	// Sender's interval contains true send time 10.0; true delay anywhere
	// in [dmin, dmax] must leave true receive time inside the compensated
	// interval.
	iv := ivl(10.0, 0.001, 0.001)
	dmin, dmax := dur(100e-6), dur(300e-6)
	out := iv.DelayCompensate(dmin, dmax)
	for _, delay := range []float64{100e-6, 200e-6, 300e-6} {
		recv := st(10.0 + delay)
		if !out.Contains(recv) {
			t.Errorf("delay %v: %v not in %+v", delay, recv, out)
		}
	}
	// Enlargement is exactly the uncertainty.
	if !approxD(out.Length()-iv.Length(), dmax-dmin) {
		t.Errorf("enlargement = %v, want %v", out.Length()-iv.Length(), dmax-dmin)
	}
}

func TestDriftCompensate(t *testing.T) {
	iv := ivl(10, 0.0001, 0.0001)
	dt := dur(1.0)                      // one second of local time
	out := iv.DriftCompensate(dt, 2000) // 2 ppm
	if !approx(out.Ref, st(11)) {
		t.Errorf("ref = %v", out.Ref)
	}
	// Deterioration ≈ 2 µs on each side.
	grow := (out.Length() - iv.Length()) / 2
	if grow < dur(2e-6) || grow > dur(2e-6)+2 {
		t.Errorf("deterioration = %v, want ≈2µs", grow)
	}
}

func TestDriftDeteriorationRoundsUp(t *testing.T) {
	// 1 granule over 1 ppb: must round up to 1 granule, not 0.
	if DriftDeterioration(1, 1) != 1 {
		t.Error("deterioration must round up")
	}
	if DriftDeterioration(0, 1000) != 0 {
		t.Error("zero span has zero deterioration")
	}
	if DriftDeterioration(-dur(1), 1000) != DriftDeterioration(dur(1), 1000) {
		t.Error("deterioration must use |dt|")
	}
}

func TestMarzulloBasic(t *testing.T) {
	// Three overlapping, one clearly off; f=1 must ignore the outlier.
	ivs := []Interval{edges(9, 11), edges(9.5, 11.5), edges(10, 12), edges(100, 101)}
	var fz Fuser
	mz, ok := fz.Marzullo(ivs, 1)
	if !ok {
		t.Fatal("Marzullo failed")
	}
	if !approx(mz.Lo(), st(10)) || !approx(mz.Hi(), st(11)) {
		t.Errorf("marzullo = [%v, %v], want [10, 11]", mz.Lo(), mz.Hi())
	}
}

func TestMarzulloAllAgree(t *testing.T) {
	ivs := []Interval{edges(9, 11), edges(10, 12), edges(8, 10.5)}
	var fz Fuser
	mz, ok := fz.Marzullo(ivs, 0)
	if !ok || !approx(mz.Lo(), st(10)) || !approx(mz.Hi(), st(10.5)) {
		t.Errorf("marzullo f=0 = %+v ok=%v", mz, ok)
	}
}

func TestMarzulloNoQuorum(t *testing.T) {
	ivs := []Interval{edges(1, 2), edges(5, 6), edges(9, 10)}
	var fz Fuser
	if _, ok := fz.Marzullo(ivs, 0); ok {
		t.Error("disjoint intervals should fail with f=0")
	}
	if _, ok := fz.Marzullo(nil, 0); ok {
		t.Error("empty input should fail")
	}
	if _, ok := fz.Marzullo([]Interval{edges(1, 2)}, 1); ok {
		t.Error("f >= n should fail")
	}
}

func TestMarzulloContainsTruthUnderFaults(t *testing.T) {
	// Truth at 10; n=4, f=1; correct intervals contain truth.
	truth := st(10)
	ivs := []Interval{edges(9.9, 10.1), edges(9.95, 10.2), edges(9.8, 10.05), edges(3, 4)}
	var fz Fuser
	mz, ok := fz.Marzullo(ivs, 1)
	if !ok || !mz.Contains(truth) {
		t.Errorf("marzullo lost the truth: %+v ok=%v", mz, ok)
	}
}

func TestFTMidpoint(t *testing.T) {
	ivs := points(1, 2, 3, 100)
	var fz Fuser
	// f=1: drop 1 and 100, midpoint of [2,3] = 2.5.
	got := fz.FTMidpoint(ivs, 1)
	if !approx(got, st(2.5)) {
		t.Errorf("FTMidpoint = %v, want 2.5", got)
	}
	// f=0: midpoint of [1,100].
	if got := fz.FTMidpoint(ivs, 0); !approx(got, st(50.5)) {
		t.Errorf("FTMidpoint f=0 = %v", got)
	}
}

func TestFTMidpointPanicsOnBadF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 2f >= n")
		}
	}()
	var fz Fuser
	fz.FTMidpoint(points(1, 2), 1)
}

func TestOrthogonalAccuracy(t *testing.T) {
	ivs := []Interval{ivl(10, 0.5, 0.5), ivl(10.2, 0.5, 0.5), ivl(9.9, 0.5, 0.5), ivl(50, 0.1, 0.1)}
	var fz Fuser
	oa, ok := fz.OrthogonalAccuracy(ivs, 1)
	if !ok {
		t.Fatal("OA failed")
	}
	mz, _ := fz.Marzullo(ivs, 1)
	if !oa.ContainsInterval(mz) && !mz.ContainsInterval(oa) {
		// OA is the Marzullo interval re-referenced, so edges must match.
		t.Errorf("OA %+v inconsistent with Marzullo %+v", oa, mz)
	}
	if !oa.Contains(st(10)) {
		t.Errorf("OA lost truth: %+v", oa)
	}
	// The reference should be near the FTM of the correct refs (~10.03),
	// certainly not dragged to the faulty 50.
	if oa.Ref > st(11) || oa.Ref < st(9) {
		t.Errorf("OA ref implausible: %v", oa.Ref)
	}
}

func TestValidateAccepts(t *testing.T) {
	validation := ivl(10, 0.01, 0.01) // ±10 ms reliable interval
	gps := ivl(10.001, 0.0001, 0.0001)
	out, accepted := Validate(gps, validation)
	if !accepted {
		t.Fatal("consistent GPS rejected")
	}
	if out.Length() > gps.Length()+2 {
		t.Errorf("validated interval should be GPS-sized, got %v", out.Length())
	}
}

func TestValidateRejects(t *testing.T) {
	validation := ivl(10, 0.01, 0.01)
	gps := ivl(37, 0.0001, 0.0001) // wildly wrong (e.g. wrong-second fault)
	out, accepted := Validate(gps, validation)
	if accepted {
		t.Fatal("inconsistent GPS accepted")
	}
	if out != validation {
		t.Errorf("fallback should be the validation interval, got %+v", out)
	}
}

// Property: Marzullo's output is contained in the f=0 envelope and
// contains the intersection of all inputs when that is non-empty.
func TestQuickMarzulloSandwich(t *testing.T) {
	f := func(raw [4]struct {
		Ref  int16
		M, P uint8
	}) bool {
		ivs := make([]Interval, 4)
		for i, r := range raw {
			ivs[i] = New(timefmt.Stamp(r.Ref), timefmt.Duration(r.M), timefmt.Duration(r.P))
		}
		var fz Fuser
		mz, ok := fz.Marzullo(ivs, 1)
		if !ok {
			return true // nothing to check
		}
		lo, hi := ivs[0].Lo(), ivs[0].Hi()
		for _, iv := range ivs[1:] {
			lo, hi = min(lo, iv.Lo()), max(hi, iv.Hi())
		}
		if env := FromEdges(lo, hi, lo); !env.ContainsInterval(mz) {
			return false
		}
		// Full intersection (f=0), if it exists, must lie inside the f=1 result.
		full, okFull := fz.Marzullo(ivs, 0)
		if okFull && !mz.ContainsInterval(full) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: DelayCompensate preserves containment of the true receive
// time for any true delay within bounds.
func TestQuickDelayCompensate(t *testing.T) {
	f := func(refRaw int16, m, p uint8, dminRaw, spanRaw, pickRaw uint8) bool {
		iv := New(timefmt.Stamp(refRaw), timefmt.Duration(m), timefmt.Duration(p))
		dmin := timefmt.Duration(dminRaw)
		dmax := dmin + timefmt.Duration(spanRaw)
		trueDelay := dmin + timefmt.Duration(pickRaw)%(dmax-dmin+1)
		// True send time anywhere in iv.
		trueSend := iv.Lo().Add(iv.Length() / 2)
		out := iv.DelayCompensate(dmin, dmax)
		return out.Contains(trueSend.Add(trueDelay))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: intersection is commutative in its edges.
func TestQuickIntersectCommutative(t *testing.T) {
	f := func(a, b int16, am, ap, bm, bp uint8) bool {
		x := New(timefmt.Stamp(a), timefmt.Duration(am), timefmt.Duration(ap))
		y := New(timefmt.Stamp(b), timefmt.Duration(bm), timefmt.Duration(bp))
		p, okP := x.Intersect(y)
		q, okQ := y.Intersect(x)
		if okP != okQ {
			return false
		}
		if !okP {
			return true
		}
		return p.Lo() == q.Lo() && p.Hi() == q.Hi()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarzullo16(b *testing.B) {
	ivs := make([]Interval, 16)
	for i := range ivs {
		ivs[i] = ivl(10+float64(i)*0.01, 0.5, 0.5)
	}
	var fz Fuser
	fz.Marzullo(ivs, 5) // warm the scratch buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fz.Marzullo(ivs, 5)
	}
}

func TestFTAverage(t *testing.T) {
	ivs := points(1, 2, 3, 100)
	var fz Fuser
	// f=1: drop 1 and 100, mean of {2,3} = 2.5.
	if got := fz.FTAverage(ivs, 1); !approx(got, st(2.5)) {
		t.Errorf("FTAverage = %v, want 2.5", got)
	}
	// f=0: mean of all = 26.5.
	if got := fz.FTAverage(ivs, 0); !approx(got, st(26.5)) {
		t.Errorf("FTAverage f=0 = %v, want 26.5", got)
	}
}

func TestFTAveragePanicsOnBadF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 2f >= n")
		}
	}()
	var fz Fuser
	fz.FTAverage(points(1), 1)
}

func TestOrthogonalAccuracyFTA(t *testing.T) {
	ivs := []Interval{ivl(10, 0.5, 0.5), ivl(10.2, 0.5, 0.5), ivl(9.9, 0.5, 0.5), ivl(50, 0.1, 0.1)}
	var fz Fuser
	oa, ok := fz.OrthogonalAccuracyFTA(ivs, 1)
	if !ok {
		t.Fatal("OA-FTA failed")
	}
	if !oa.Contains(st(10)) {
		t.Errorf("OA-FTA lost truth: %+v", oa)
	}
	// Reference is the trimmed mean of {10, 10.2, 9.9} ≈ 10.03, far from 50.
	if oa.Ref > st(10.5) || oa.Ref < st(9.5) {
		t.Errorf("OA-FTA ref implausible: %v", oa.Ref)
	}
}

func TestMarzulloMidpointFunction(t *testing.T) {
	ivs := []Interval{edges(9, 11), edges(9.5, 11.5), edges(10, 12)}
	var fz Fuser
	out, ok := fz.MarzulloMidpoint(ivs, 0)
	if !ok {
		t.Fatal("MarzulloMidpoint failed")
	}
	// Intersection is [10, 11]; reference at its midpoint.
	if !approx(out.Ref, st(10.5)) {
		t.Errorf("ref = %v, want 10.5", out.Ref)
	}
	// Degenerate f is clamped instead of panicking.
	if _, ok := fz.MarzulloMidpoint(ivs[:1], 3); !ok {
		t.Error("single interval with oversized f should still fuse")
	}
}

// Property: FTAverage lies within [min, max] of the surviving refs and
// between FTMidpoint's bounding extremes.
func TestQuickFTAverageBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 3 {
			return true
		}
		ivs := make([]Interval, len(raw))
		for i, v := range raw {
			ivs[i] = Interval{Ref: timefmt.Stamp(v)}
		}
		fTol := (len(ivs) - 1) / 3
		var fz Fuser
		avg := fz.FTAverage(ivs, fTol)
		sorted := sortedRefs(ivs)
		lo, hi := sorted[fTol], sorted[len(sorted)-1-fTol]
		return avg >= lo && avg <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
