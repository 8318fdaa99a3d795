// Scratch-based convergence: a Fuser owns reusable buffers so the
// per-round hot path of a long-running synchronizer computes Marzullo
// intersections and fault-tolerant midpoints without allocating. The
// package-level functions Marzullo, FTMidpoint and OrthogonalAccuracy
// stay as the allocation-per-call reference implementations; a Fuser
// produces bit-identical results (same edge ordering, same tie rules)
// and is what internal/discipline uses on the steady-state path.

package interval

import (
	"sort"

	"ntisim/internal/timefmt"
)

// fuserEdge mirrors the sweep edge of Marzullo.
type fuserEdge struct {
	at    timefmt.Stamp
	delta int8 // +1 = interval opens, -1 = closes
}

// edgeSlice sorts edges by position, opens before closes at the same
// point (closed intervals touch) — exactly Marzullo's comparator.
type edgeSlice []fuserEdge

func (e edgeSlice) Len() int      { return len(e) }
func (e edgeSlice) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e edgeSlice) Less(i, j int) bool {
	if e[i].at != e[j].at {
		return e[i].at < e[j].at
	}
	return e[i].delta > e[j].delta
}

// stampSlice sorts reference points ascending.
type stampSlice []timefmt.Stamp

func (s stampSlice) Len() int           { return len(s) }
func (s stampSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s stampSlice) Less(i, j int) bool { return s[i] < s[j] }

// Fuser computes the convergence functions of this package with
// reusable scratch buffers: after warm-up no call allocates. A Fuser is
// single-goroutine state (one per synchronizer/discipline instance).
type Fuser struct {
	edges edgeSlice
	refs  stampSlice
}

// Marzullo is the scratch-buffer equivalent of the package function.
func (fz *Fuser) Marzullo(ivs []Interval, f int) (Interval, bool) {
	n := len(ivs)
	need := n - f
	if need <= 0 || n == 0 {
		return Interval{}, false
	}
	edges := fz.edges[:0]
	for _, iv := range ivs {
		edges = append(edges, fuserEdge{iv.Lo(), +1}, fuserEdge{iv.Hi(), -1})
	}
	fz.edges = edges
	sort.Sort(&fz.edges)
	var lo, hi timefmt.Stamp
	foundLo, foundHi := false, false
	depth := 0
	for _, e := range fz.edges {
		depth += int(e.delta)
		if e.delta > 0 && depth >= need && !foundLo {
			lo, foundLo = e.at, true
		}
		// Last close below need, not the first: the hull over all
		// depth-(n−f) regions (see the package function).
		if e.delta < 0 && depth == need-1 && foundLo {
			hi, foundHi = e.at, true
		}
	}
	if !foundLo || !foundHi || hi < lo {
		return Interval{}, false
	}
	mid := lo.Add(hi.Sub(lo) / 2)
	return FromEdges(lo, hi, mid), true
}

// loadRefs fills the scratch reference-point buffer from ivs.
func (fz *Fuser) loadRefs(ivs []Interval) {
	refs := fz.refs[:0]
	for _, iv := range ivs {
		refs = append(refs, iv.Ref)
	}
	fz.refs = refs
}

// FTMidpoint computes the fault-tolerant midpoint of the intervals'
// reference points without allocating. It panics if 2f >= len(ivs),
// like the package function.
func (fz *Fuser) FTMidpoint(ivs []Interval, f int) timefmt.Stamp {
	n := len(ivs)
	if 2*f >= n {
		panic("interval: FTMidpoint needs n > 2f")
	}
	fz.loadRefs(ivs)
	sort.Sort(&fz.refs)
	lo, hi := fz.refs[f], fz.refs[n-1-f]
	return lo.Add(hi.Sub(lo) / 2)
}

// degradeF mirrors the graceful degradation of the package convergence
// functions: with fewer than 2f+1 inputs fall back to the largest
// tolerable f.
func degradeF(ivs []Interval, f int) int {
	if 2*f >= len(ivs) && len(ivs) > 0 {
		f = (len(ivs) - 1) / 2
	}
	return f
}

// OrthogonalAccuracy is the scratch-buffer equivalent of the package
// function: Marzullo edges, fault-tolerant-midpoint reference.
func (fz *Fuser) OrthogonalAccuracy(ivs []Interval, f int) (Interval, bool) {
	f = degradeF(ivs, f)
	mz, ok := fz.Marzullo(ivs, f)
	if !ok {
		return Interval{}, false
	}
	return mz.Rereference(fz.FTMidpoint(ivs, f)), true
}
