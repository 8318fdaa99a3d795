// Convergence functions. A Fuser owns reusable scratch buffers, so the
// per-round hot path of a long-running synchronizer computes Marzullo
// intersections, fault-tolerant midpoints and averages without
// allocating after warm-up. It is the package's only implementation of
// the convergence functions; the method expressions
// (*Fuser).OrthogonalAccuracy, (*Fuser).OrthogonalAccuracyFTA and
// (*Fuser).MarzulloMidpoint are what internal/discipline runs. Every
// sort here is slices.Sort on plain stamps: Marzullo sorts the lower
// and the upper edges apart and merges the two lists.

package interval

import (
	"slices"

	"ntisim/internal/timefmt"
)

// Fuser computes the convergence functions with reusable scratch
// buffers: after warm-up no call allocates. A Fuser is single-goroutine
// state (one per synchronizer/discipline instance).
type Fuser struct {
	// los and his are Marzullo's lower and upper edges; refs the
	// reference points FTMidpoint and FTAverage sort.
	los, his, refs []timefmt.Stamp
}

// Marzullo computes the fault-tolerant intersection of the given
// intervals assuming at most f of them are faulty [Mar84]: the smallest
// interval containing every point that lies in at least n−f inputs. If
// fewer than n−f inputs overlap anywhere, ok is false. The result is
// referenced at its midpoint.
func (fz *Fuser) Marzullo(ivs []Interval, f int) (Interval, bool) {
	n := len(ivs)
	need := n - f
	if need <= 0 || n == 0 {
		return Interval{}, false
	}
	los, his := fz.los[:0], fz.his[:0]
	for _, iv := range ivs {
		los = append(los, iv.Lo())
		his = append(his, iv.Hi())
	}
	fz.los, fz.his = los, his
	slices.Sort(los)
	slices.Sort(his)
	// Sweep the edges in position order by merging the two sorted
	// lists; at equal positions an open comes before a close, so
	// closed intervals touch. The sweep ends at the last close: an open
	// after it could only find lo with no close left to set hi.
	var lo, hi timefmt.Stamp
	foundLo, foundHi := false, false
	depth := 0
	for i, j := 0, 0; j < n; {
		if i < n && los[i] <= his[j] {
			depth++
			if depth >= need && !foundLo {
				lo, foundLo = los[i], true
			}
			i++
			continue
		}
		depth--
		// Keep advancing hi to the LAST close that drops below need:
		// Byzantine inputs can split the depth-(n−f) coverage into
		// disjoint regions, and true time is only guaranteed to lie in
		// one of them — the hull over all of them is what the contract
		// (and the containment theorem) requires, not the leftmost.
		if depth == need-1 && foundLo {
			hi, foundHi = his[j], true
		}
		j++
	}
	if !foundLo || !foundHi || hi < lo {
		return Interval{}, false
	}
	mid := lo.Add(hi.Sub(lo) / 2)
	return FromEdges(lo, hi, mid), true
}

// sortedRefs fills the scratch reference-point buffer from ivs and
// sorts it, panicking unless n > 2f.
func (fz *Fuser) sortedRefs(ivs []Interval, f int, name string) []timefmt.Stamp {
	if 2*f >= len(ivs) {
		panic("interval: " + name + " needs n > 2f")
	}
	refs := fz.refs[:0]
	for _, iv := range ivs {
		refs = append(refs, iv.Ref)
	}
	fz.refs = refs
	slices.Sort(refs)
	return refs
}

// FTMidpoint computes the fault-tolerant midpoint of the intervals'
// reference points [LL84]/[KO87]: discard the f smallest and f largest
// values and return the midpoint of the extremes of the rest. It panics
// if 2f >= len(ivs).
func (fz *Fuser) FTMidpoint(ivs []Interval, f int) timefmt.Stamp {
	refs := fz.sortedRefs(ivs, f, "FTMidpoint")
	lo, hi := refs[f], refs[len(refs)-1-f]
	return lo.Add(hi.Sub(lo) / 2)
}

// FTAverage computes the fault-tolerant average of the intervals'
// reference points (the convergence function of [LL84]'s averaging
// variant and [KO87]'s CSU firmware): discard the f smallest and f
// largest values, return the arithmetic mean of the rest. Compared to
// the midpoint it weights every surviving input, trading worst-case
// contraction for noise averaging. It panics if 2f >= len(ivs).
func (fz *Fuser) FTAverage(ivs []Interval, f int) timefmt.Stamp {
	refs := fz.sortedRefs(ivs, f, "FTAverage")
	kept := refs[f : len(refs)-f]
	base := kept[0]
	var acc int64
	for _, v := range kept {
		acc += int64(v.Sub(base))
	}
	return base.Add(timefmt.Duration(acc / int64(len(kept))))
}

// DegradeF is the graceful degradation every convergence function
// shares: with n inputs, fewer than 2f+1 leave the full fault tolerance
// unattainable this round (e.g. peers went silent), so fall back to the
// largest tolerable f rather than refusing to resynchronize.
func DegradeF(n, f int) int {
	if 2*f >= n && n > 0 {
		f = (n - 1) / 2
	}
	return f
}

// OrthogonalAccuracy is the OA convergence function of [Sch97b] as
// reconstructed from the paper's description (§5): precision is driven
// by a fault-tolerant-midpoint choice of the new reference point, while
// accuracy is maintained "orthogonally" by the Marzullo intersection of
// the input intervals. The returned interval always contains the
// Marzullo interval (hence real time, if at most f inputs are faulty).
func (fz *Fuser) OrthogonalAccuracy(ivs []Interval, f int) (Interval, bool) {
	f = DegradeF(len(ivs), f)
	mz, ok := fz.Marzullo(ivs, f)
	if !ok {
		return Interval{}, false
	}
	// Orthogonality: the reference point follows pure fault-tolerant-
	// midpoint dynamics (that is what guarantees precision, [LL84]), and
	// is NOT clamped into the Marzullo interval — when it falls outside,
	// Rereference extends the interval instead, so real-time containment
	// (accuracy) is preserved at the cost of a wider interval. Clamping
	// would couple the reference to the node's own interval edge and can
	// stall precision convergence entirely.
	return mz.Rereference(fz.FTMidpoint(ivs, f)), true
}

// OrthogonalAccuracyFTA is OrthogonalAccuracy with the reference point
// chosen by the fault-tolerant average instead of the midpoint — the
// ablation used by the convergence-function comparison (experiment E14).
func (fz *Fuser) OrthogonalAccuracyFTA(ivs []Interval, f int) (Interval, bool) {
	f = DegradeF(len(ivs), f)
	mz, ok := fz.Marzullo(ivs, f)
	if !ok {
		return Interval{}, false
	}
	return mz.Rereference(fz.FTAverage(ivs, f)), true
}

// MarzulloMidpoint is the convergence function that sets the new
// reference to the midpoint of the fault-tolerant intersection — pure
// Marzullo dynamics as used by NTP's clock selection. Accuracy-optimal,
// but its reference point is dominated by whichever inputs bound the
// intersection, which couples precision to interval widths.
func (fz *Fuser) MarzulloMidpoint(ivs []Interval, f int) (Interval, bool) {
	return fz.Marzullo(ivs, DegradeF(len(ivs), f))
}
