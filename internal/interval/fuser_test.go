package interval

import (
	"math/rand"
	"testing"

	"ntisim/internal/timefmt"
)

// --- OrthogonalAccuracy degenerate inputs -------------------------------

func TestOrthogonalAccuracyEmpty(t *testing.T) {
	if _, ok := OrthogonalAccuracy(nil, 0); ok {
		t.Error("nil input should not converge")
	}
	if _, ok := OrthogonalAccuracy([]Interval{}, 1); ok {
		t.Error("empty input should not converge")
	}
	var fz Fuser
	if _, ok := fz.OrthogonalAccuracy(nil, 0); ok {
		t.Error("Fuser: nil input should not converge")
	}
}

func TestOrthogonalAccuracySingleInterval(t *testing.T) {
	in := ivl(10, 1, 2)
	// A single interval is its own intersection even when the caller
	// asks for more fault tolerance than the set supports (graceful f
	// degradation to 0).
	for _, f := range []int{0, 1, 3} {
		out, ok := OrthogonalAccuracy([]Interval{in}, f)
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
	for _, f := range []int{0, 1} {
		if out, ok := OrthogonalAccuracy(ivs, f); ok {
			t.Errorf("f=%d: disjoint set converged to %v", f, out)
		}
		var fz Fuser
		if out, ok := fz.OrthogonalAccuracy(ivs, f); ok {
			t.Errorf("Fuser f=%d: disjoint set converged to %v", f, out)
		}
	}
}

// --- Fuser vs package-function equivalence ------------------------------

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

func refsOf(ivs []Interval) []timefmt.Stamp {
	out := make([]timefmt.Stamp, len(ivs))
	for i, iv := range ivs {
		out[i] = iv.Ref
	}
	return out
}

func TestFuserMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var fz Fuser
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		f := rng.Intn(4)
		ivs := randomIvs(rng, n)

		wantMz, wantOK := Marzullo(ivs, f)
		gotMz, gotOK := fz.Marzullo(ivs, f)
		if wantOK != gotOK || wantMz != gotMz {
			t.Fatalf("trial %d: Marzullo(n=%d,f=%d) = %v,%v; Fuser = %v,%v",
				trial, n, f, wantMz, wantOK, gotMz, gotOK)
		}

		wantOA, wantOK := OrthogonalAccuracy(ivs, f)
		gotOA, gotOK := fz.OrthogonalAccuracy(ivs, f)
		if wantOK != gotOK || wantOA != gotOA {
			t.Fatalf("trial %d: OrthogonalAccuracy(n=%d,f=%d) = %v,%v; Fuser = %v,%v",
				trial, n, f, wantOA, wantOK, gotOA, gotOK)
		}

		if 2*f < n {
			refs := refsOf(ivs)
			if want, got := FTMidpoint(refs, f), fz.FTMidpoint(ivs, f); want != got {
				t.Fatalf("trial %d: FTMidpoint(n=%d,f=%d) = %v; Fuser = %v", trial, n, f, want, got)
			}
		}
	}
}

func TestFuserPanicsLikePackage(t *testing.T) {
	var fz Fuser
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
	fz.OrthogonalAccuracy(ivs, 2) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := fz.OrthogonalAccuracy(ivs, 2); !ok {
			t.Fatal("convergence failed")
		}
	})
	if allocs != 0 {
		t.Errorf("Fuser allocates %v per round, want 0", allocs)
	}
}
