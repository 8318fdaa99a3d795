package interval

import (
	"math/rand"
	"sort"
	"testing"

	"ntisim/internal/timefmt"
)

// --- OrthogonalAccuracy degenerate inputs -------------------------------

func TestOrthogonalAccuracyEmpty(t *testing.T) {
	var fz Fuser
	if _, ok := fz.OrthogonalAccuracy(nil, 0); ok {
		t.Error("nil input should not converge")
	}
	if _, ok := fz.OrthogonalAccuracy([]Interval{}, 1); ok {
		t.Error("empty input should not converge")
	}
}

func TestOrthogonalAccuracySingleInterval(t *testing.T) {
	in := ivl(10, 1, 2)
	var fz Fuser
	// A single interval is its own intersection even when the caller
	// asks for more fault tolerance than the set supports (graceful f
	// degradation to 0).
	for _, f := range []int{0, 1, 3} {
		out, ok := fz.OrthogonalAccuracy([]Interval{in}, f)
		if !ok {
			t.Fatalf("f=%d: single interval should converge", f)
		}
		if !approx(out.Lo(), in.Lo()) || !approx(out.Hi(), in.Hi()) {
			t.Errorf("f=%d: edges changed: in %v out %v", f, in, out)
		}
		// FTMidpoint of one reference is that reference.
		if !approx(out.Ref, in.Ref) {
			t.Errorf("f=%d: ref = %v, want %v", f, out.Ref, in.Ref)
		}
	}
}

func TestOrthogonalAccuracyFullyDisjoint(t *testing.T) {
	// Three pairwise-disjoint intervals: with f=1 Marzullo needs 2
	// overlapping, with f=0 it needs all 3 — neither exists.
	ivs := []Interval{ivl(0, 0.1, 0.1), ivl(10, 0.1, 0.1), ivl(20, 0.1, 0.1)}
	var fz Fuser
	for _, f := range []int{0, 1} {
		if out, ok := fz.OrthogonalAccuracy(ivs, f); ok {
			t.Errorf("f=%d: disjoint set converged to %v", f, out)
		}
	}
}

// --- Brute-force oracle --------------------------------------------------

// The oracle restates the convergence functions from their definitions,
// with none of the Fuser's sweep: depth(x) = #{Lo_i ≤ x} − #{Hi_i < x}
// is the number of closed inputs covering x, Marzullo's lo is the least
// Lo edge with depth ≥ n−f and its hi the greatest Hi edge ≥ lo with
// depth ≥ n−f. FTMidpoint and FTAverage read a sorted copy of the
// reference points.

func depthAt(ivs []Interval, x timefmt.Stamp) int {
	d := 0
	for _, iv := range ivs {
		if iv.Lo() <= x {
			d++
		}
		if iv.Hi() < x {
			d--
		}
	}
	return d
}

func oracleMarzullo(ivs []Interval, f int) (Interval, bool) {
	need := len(ivs) - f
	if need <= 0 || len(ivs) == 0 {
		return Interval{}, false
	}
	var lo, hi timefmt.Stamp
	foundLo, foundHi := false, false
	for _, iv := range ivs {
		if x := iv.Lo(); depthAt(ivs, x) >= need && (!foundLo || x < lo) {
			lo, foundLo = x, true
		}
	}
	for _, iv := range ivs {
		if x := iv.Hi(); foundLo && x >= lo && depthAt(ivs, x) >= need && (!foundHi || x > hi) {
			hi, foundHi = x, true
		}
	}
	if !foundLo || !foundHi || hi < lo {
		return Interval{}, false
	}
	return FromEdges(lo, hi, lo.Add(hi.Sub(lo)/2)), true
}

func sortedRefs(ivs []Interval) []timefmt.Stamp {
	refs := make([]timefmt.Stamp, len(ivs))
	for i, iv := range ivs {
		refs[i] = iv.Ref
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	return refs
}

func oracleFTMidpoint(sorted []timefmt.Stamp, f int) timefmt.Stamp {
	lo, hi := sorted[f], sorted[len(sorted)-1-f]
	return lo.Add(hi.Sub(lo) / 2)
}

func oracleFTAverage(sorted []timefmt.Stamp, f int) timefmt.Stamp {
	kept := sorted[f : len(sorted)-f]
	var acc int64
	for _, v := range kept {
		acc += int64(v.Sub(kept[0]))
	}
	return kept[0].Add(timefmt.Duration(acc / int64(len(kept))))
}

// oracleConverge is the oracle of a convergence function: f degraded to
// the largest tolerable value when n ≤ 2f, the Marzullo interval, then
// re-referenced at ref of the sorted reference points (nil: left at the
// Marzullo midpoint).
func oracleConverge(ref func([]timefmt.Stamp, int) timefmt.Stamp) func([]Interval, int) (Interval, bool) {
	return func(ivs []Interval, f int) (Interval, bool) {
		if len(ivs) > 0 && 2*f >= len(ivs) {
			f = (len(ivs) - 1) / 2
		}
		mz, ok := oracleMarzullo(ivs, f)
		if !ok || ref == nil {
			return mz, ok
		}
		return mz.Rereference(ref(sortedRefs(ivs), f)), true
	}
}

// checkOracle fails t unless every convergence function of fz agrees
// bit for bit with the oracle on (ivs, f).
func checkOracle(t *testing.T, fz *Fuser, ivs []Interval, f int) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want func([]Interval, int) (Interval, bool)
	}{
		{"Marzullo", fz.Marzullo, oracleMarzullo},
		{"OrthogonalAccuracy", fz.OrthogonalAccuracy, oracleConverge(oracleFTMidpoint)},
		{"OrthogonalAccuracyFTA", fz.OrthogonalAccuracyFTA, oracleConverge(oracleFTAverage)},
		{"MarzulloMidpoint", fz.MarzulloMidpoint, oracleConverge(nil)},
	} {
		got, gotOK := c.got(ivs, f)
		want, wantOK := c.want(ivs, f)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s(n=%d, f=%d) = (%v, %v), oracle (%v, %v); inputs %v", c.name, len(ivs), f, got, gotOK, want, wantOK, ivs)
		}
	}
	if f < 0 || 2*f >= len(ivs) {
		return
	}
	sorted := sortedRefs(ivs)
	if got, want := fz.FTMidpoint(ivs, f), oracleFTMidpoint(sorted, f); got != want {
		t.Fatalf("FTMidpoint(n=%d, f=%d) = %v, oracle %v; inputs %v", len(ivs), f, got, want, ivs)
	}
	if got, want := fz.FTAverage(ivs, f), oracleFTAverage(sorted, f); got != want {
		t.Fatalf("FTAverage(n=%d, f=%d) = %v, oracle %v; inputs %v", len(ivs), f, got, want, ivs)
	}
}

// randomIvs builds n intervals scattered around t=100s with assorted
// widths, including exact ties (duplicated edges) to exercise the
// opens-before-closes tie rule.
func randomIvs(rng *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		ref := 100 + rng.NormFloat64()*1e-3
		minus := rng.Float64() * 5e-3
		plus := rng.Float64() * 5e-3
		ivs[i] = ivl(ref, minus, plus)
		if i > 0 && rng.Intn(4) == 0 {
			ivs[i] = ivs[i-1] // exact duplicate: edge ties
		}
	}
	return ivs
}

func TestFuserMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var fz Fuser
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		f := rng.Intn(4)
		checkOracle(t, &fz, randomIvs(rng, n), f)
	}
}

// TestFuserPanicsLikePackage checks that a Fuser whose scratch buffer is
// already filled by an earlier call still panics on n <= 2f, rather than
// answering from the stale references left in the buffer.
func TestFuserPanicsLikePackage(t *testing.T) {
	var fz Fuser
	fz.FTMidpoint(points(1, 2, 3, 4, 5), 2) // fill the scratch buffer
	defer func() {
		if recover() == nil {
			t.Error("Fuser.FTMidpoint with 2f >= n should panic")
		}
	}()
	fz.FTMidpoint([]Interval{ivl(1, 1, 1)}, 1)
}

// TestFuserZeroAlloc pins the Fuser's raison d'être: after warm-up its
// convergence calls do not allocate.
func TestFuserZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ivs := randomIvs(rng, 8)
	var fz Fuser
	for _, c := range []struct {
		name string
		fn   func(*Fuser, []Interval, int) (Interval, bool)
	}{
		{"OrthogonalAccuracy", (*Fuser).OrthogonalAccuracy},
		{"OrthogonalAccuracyFTA", (*Fuser).OrthogonalAccuracyFTA},
		{"MarzulloMidpoint", (*Fuser).MarzulloMidpoint},
	} {
		c.fn(&fz, ivs, 2) // warm the scratch buffers
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := c.fn(&fz, ivs, 2); !ok {
				t.Fatalf("%s: convergence failed", c.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v per round, want 0", c.name, allocs)
		}
	}
}
