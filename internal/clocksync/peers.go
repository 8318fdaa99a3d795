package clocksync

import (
	"cmp"
	"slices"

	"ntisim/internal/interval"
	"ntisim/internal/timefmt"
)

// peerEntry is what onArrival keeps of one received CSP until its
// round converges.
type peerEntry struct {
	iv      interval.Interval // real-time bounds at rx instant, local axis
	rx      timefmt.Stamp     // local clock at rx instant
	primary bool              // sender is anchored to a validated UTC source
}

// peerSlot is one collected CSP: its sender and its entry.
type peerSlot struct {
	node uint16
	peerEntry
}

// roundBucket holds the CSPs of one round in arrival order. A bucket
// that is not live is free for the next round put sees; its slots keep
// their capacity.
type roundBucket struct {
	round uint32
	live  bool
	slots []peerSlot
}

// peerTable collects the CSPs of the rounds that have not converged
// yet: the round about to converge, early CSPs of the next one and late
// ones of the last. A few buckets are reused round after round, so the
// steady state allocates nothing.
type peerTable struct {
	buckets []roundBucket
}

// put records node's CSP of the given round.
func (t *peerTable) put(round uint32, node uint16, e peerEntry) {
	free := -1
	for i := range t.buckets {
		b := &t.buckets[i]
		if b.live && b.round == round {
			b.slots = append(b.slots, peerSlot{node, e})
			return
		}
		if !b.live && free < 0 {
			free = i
		}
	}
	if free < 0 {
		free = len(t.buckets)
		t.buckets = append(t.buckets, roundBucket{})
	}
	b := &t.buckets[free]
	b.round, b.live = round, true
	b.slots = append(b.slots[:0], peerSlot{node, e})
}

// take hands back round k's peers in ascending node id, each node's
// last CSP of the round only, and frees round k's bucket. It also drops
// every other round r with r+2 < cur (cur is the synchronizer's round
// counter, k+1 at a converge): rounds that missed their compute window.
// The result is valid until the next put.
func (t *peerTable) take(k, cur uint32) []peerSlot {
	var got []peerSlot
	for i := range t.buckets {
		b := &t.buckets[i]
		switch {
		case !b.live:
		case b.round == k:
			got, b.live = b.slots, false
		case b.round+2 < cur:
			b.live = false
		}
	}
	// Arrivals come in broadcast-stagger order, which is node order
	// unless a frame was delayed; the stable sort keeps a node's CSPs
	// in arrival order, so the last of each run is the newest.
	slices.SortStableFunc(got, func(a, b peerSlot) int { return cmp.Compare(a.node, b.node) })
	out := got[:0]
	for i, s := range got {
		if i+1 < len(got) && got[i+1].node == s.node {
			continue
		}
		out = append(out, s)
	}
	return out
}
