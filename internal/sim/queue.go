package sim

import (
	"math"
	"math/bits"
)

// The pending-event set is a monomorphic 4-ary min-heap on (at, seq)
// (see DESIGN.md §4). Heap entries are small pointer-free values: sift
// operations move 24-byte nodes within one slice with no interface
// dispatch, no `any` boxing and no GC write barriers (the Event itself
// is reached through the simulator's arena by index). (at, seq) is a
// total order — seq is unique per scheduling — so the firing order does
// not depend on the arity or the internal layout.
//
// A node keeps its firing time as the integer key math.Float64bits(at).
// At and rearm accept only times t ≥ now ≥ +0 and map −0 to +0, so
// every key is the bit pattern of a non-negative float64 (+Inf
// included, NaN rejected), and for those the unsigned bit order is the
// time order. The comparator is then the borrow out of one 128-bit
// subtraction (key, seq) − (key′, seq′), and each full level of
// siftDown picks the least of its four children arithmetically, with
// no data-dependent branch to mispredict.
//
// Events scheduled by Chain do not enter the heap. Each chained Event
// holds its successor's node, and only the least pending node of every
// chain is queued, in the chain run: a slice sorted by (at, seq). The
// fire loop takes the lesser of the heap's root and the run's head, so
// it still pops the total order (at, seq). A fired chain node is
// replaced by its successor, inserted from the run's back. The chains
// in flight are one frame's DMA bursts, which advance in lockstep
// (words 400 ns apart behind arbitration offsets of at most 300 ns),
// so a successor nearly always belongs last and its insertion costs
// one comparison, where a heap would sink it to the bottom.
//
// Cancellation is lazy: Cancel only flips the event's state to
// stateCancelled (an O(1) tombstone). Tombstoned nodes are skipped and
// their events recycled when they surface at pop time; when tombstones
// outnumber live entries the queue is compacted in place and re-heapified
// in O(n). Compaction permutes only the internal array — the comparator's
// total order is unchanged, so determinism is preserved.

// node is one pending-event-set entry. key is math.Float64bits of the
// firing time, seq the scheduling order, and idx addresses the owning
// Simulator's event arena, keeping the node pointer-free.
type node struct {
	key uint64
	seq uint64
	idx uint32
}

// timeKey returns the heap key of a firing time t ≥ +0: its bits with
// the sign cleared, which maps −0 to +0 and leaves every other
// accepted time as it is.
func timeKey(t float64) uint64 { return math.Float64bits(t) &^ (1 << 63) }

// at returns the firing time the node's key encodes.
func (n node) at() float64 { return math.Float64frombits(n.key) }

// less returns 1 when a fires before b and 0 otherwise: the borrow out
// of the 128-bit subtraction (a.key, a.seq) − (b.key, b.seq).
func less(a, b node) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return borrow
}

// pushNode inserts a node into the heap, sifting it up with the hole
// technique (one write per level instead of a three-assignment swap).
func (s *Simulator) pushNode(n node) {
	q := append(s.queue, node{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if less(n, q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = n
	s.queue = q
}

// popRoot removes the heap's minimum node. The caller guarantees the
// heap is non-empty.
func (s *Simulator) popRoot() {
	q := s.queue
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		siftDown(q, 0, last)
	}
	s.queue = q
}

// chainRun is the sorted set of chain heads: q[head:] ascending by
// (at, seq), q[:head] already fired.
type chainRun struct {
	q    []node
	head int
}

func (r *chainRun) len() int { return len(r.q) - r.head }

// min returns the least node; the run must be non-empty.
func (r *chainRun) min() node { return r.q[r.head] }

// pop removes the least node; the run must be non-empty.
func (r *chainRun) pop() {
	if r.head++; r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
}

// insert adds n, scanning from the back. A full slice whose fired
// prefix is at least half of it is compacted rather than grown, so the
// backing array stays within a small multiple of the most heads ever
// pending at once.
func (r *chainRun) insert(n node) {
	q := r.q
	if len(q) == cap(q) && r.head >= len(q)/2 && r.head > 0 {
		q = q[:copy(q, q[r.head:])]
		r.head = 0
	}
	q = append(q, n)
	j := len(q) - 1
	for ; j > r.head && less(n, q[j-1]) == 1; j-- {
		q[j] = q[j-1]
	}
	q[j] = n
	r.q = q
}

// siftDown places v at position i of q, sinking the hole toward the
// least of up to four children per level. A level with all four
// children picks pairwise, min(min(c0, c1), min(c2, c3)), turning each
// comparison's 0/1 result into an index; only the last, partial level
// loops over its one to three children.
func siftDown(q []node, i int, v node) {
	n := len(q)
	for {
		c := i<<2 + 1
		if c+4 > n {
			if c < n {
				m := c
				for j := c + 1; j < n; j++ {
					if less(q[j], q[m]) == 1 {
						m = j
					}
				}
				if less(q[m], v) == 1 {
					q[i] = q[m]
					i = m
				}
			}
			break
		}
		ch := (*[4]node)(q[c : c+4])
		a := less(ch[1], ch[0])
		b := 2 + less(ch[3], ch[2])
		m := a ^ (a^b)&-less(ch[b&3], ch[a&3])
		if less(ch[m&3], v) == 0 {
			break
		}
		q[i] = ch[m&3]
		i = c + int(m)
	}
	q[i] = v
}

// compact removes tombstoned nodes in place, recycling their events, and
// rebuilds the heap bottom-up (Floyd) in O(n).
func (s *Simulator) compact() {
	q := s.queue
	k := 0
	for _, n := range q {
		e := s.events[n.idx]
		if e.state == stateCancelled {
			s.release(e)
			continue
		}
		q[k] = n
		k++
	}
	q = q[:k]
	for i := (k - 2) >> 2; i >= 0; i-- {
		siftDown(q, i, q[i])
	}
	s.queue = q
	s.tombstones = 0
}
