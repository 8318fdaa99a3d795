package clocksync

import (
	"slices"
	"testing"

	"ntisim/internal/interval"
	"ntisim/internal/timefmt"
)

// refRounds is the map-based round collection the peer table replaced,
// kept as FuzzRoundTable's oracle: per-round maps keyed by node id (a
// later CSP overwrites an earlier one), a bounded free list of drained
// maps, and converge's drain loop over the sorted ids.
type refRounds struct {
	collected        map[uint32]map[uint16]peerEntry
	freeEntries      []map[uint16]peerEntry
	scratchIDs       []uint16
	round            uint32
	primarySeenRound uint32
	rhoNow           int64
	stats            Stats
}

func (sy *refRounds) put(round uint32, node uint16, e peerEntry) {
	m := sy.collected[round]
	if m == nil {
		if n := len(sy.freeEntries); n > 0 {
			m = sy.freeEntries[n-1]
			sy.freeEntries = sy.freeEntries[:n-1]
		} else {
			m = make(map[uint16]peerEntry)
		}
		sy.collected[round] = m
	}
	m[node] = e
}

// recycle clears a drained per-round collection map and parks it for
// reuse (bounded, so transient round pile-ups don't pin memory).
func (sy *refRounds) recycle(m map[uint16]peerEntry) {
	if m == nil || len(sy.freeEntries) >= 4 {
		return
	}
	clear(m)
	sy.freeEntries = append(sy.freeEntries, m)
}

// sortU16 is an in-place insertion sort.
func sortU16(a []uint16) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func (sy *refRounds) gather(k uint32, now timefmt.Stamp, ivs, prims []interval.Interval) ([]interval.Interval, []interval.Interval) {
	entries := sy.collected[k]
	delete(sy.collected, k)
	// Drop stale rounds that never converged (missed compute windows).
	for r, m := range sy.collected {
		if r+2 < sy.round {
			delete(sy.collected, r)
			sy.recycle(m)
		}
	}
	ids := sy.scratchIDs[:0]
	for id := range entries {
		ids = append(ids, id)
	}
	sortU16(ids)
	sy.scratchIDs = ids
	for _, id := range ids {
		e := entries[id]
		dt := now.Sub(e.rx)
		if dt < 0 {
			continue // clock stepped across the reception; discard
		}
		iv := e.iv.DriftCompensate(dt, sy.rhoNow)
		ivs = append(ivs, iv)
		if e.primary {
			prims = append(prims, iv)
			sy.primarySeenRound = k
		}
		sy.stats.CSPsUsed++
	}
	sy.recycle(entries)
	return ivs, prims
}

// liveRounds lists the rounds the table still holds, ascending.
func (t *peerTable) liveRounds() []uint32 {
	var rs []uint32
	for _, b := range t.buckets {
		if b.live {
			rs = append(rs, b.round)
		}
	}
	slices.Sort(rs)
	return rs
}

// FuzzRoundTable runs a program of CSP arrivals and converges through
// the synchronizer's peer table and gather, and through refRounds. The
// program is a start value of the round counter and 4-byte ops (kind,
// sel, node, extra); k is one below the round counter:
//
//   - kind%4 == 0 converges round k, then advances the round counter by
//     1 + sel%3 (more than 1 is a missed compute window);
//   - otherwise a CSP of node%16 arrives (so ids repeat within a round),
//     flagged primary if kind&0x10, received one step in the future (a
//     clock stepped back across it) if kind&0x20. Its round is k−3…k+3
//     for sel%8 < 7, else a far-future one, extra<<(sel>>3) past k+4.
//
// Every arrival gets a distinct interval, so keeping another CSP than
// the last of a (round, node) changes the output. At each converge the
// ordered intervals, the primaries, CSPsUsed, primarySeenRound and the
// rounds left in the table must be equal. Seeds live in
// testdata/fuzz/FuzzRoundTable.
func FuzzRoundTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, start uint32, prog []byte) {
		sy := &Synchronizer{round: start, rhoNow: DefaultRhoPPB}
		ref := &refRounds{collected: make(map[uint32]map[uint16]peerEntry), round: start, rhoNow: DefaultRhoPPB}
		const step = timefmt.Stamp(1 << 20) // ~62 ms between ops
		now := timefmt.Stamp(1000 << 24)
		for ; len(prog) >= 4; prog = prog[4:] {
			kind, sel, node, extra := prog[0], prog[1], prog[2], prog[3]
			now += step
			k := sy.round - 1
			if kind%4 == 0 {
				gotIvs, gotPrims := sy.gather(k, now, nil, nil)
				wantIvs, wantPrims := ref.gather(k, now, nil, nil)
				if !slices.Equal(gotIvs, wantIvs) || !slices.Equal(gotPrims, wantPrims) {
					t.Fatalf("converge %d: peers %v primaries %v, reference %v %v", k, gotIvs, gotPrims, wantIvs, wantPrims)
				}
				if sy.stats.CSPsUsed != ref.stats.CSPsUsed || sy.primarySeenRound != ref.primarySeenRound {
					t.Fatalf("converge %d: CSPsUsed %d primarySeenRound %d, reference %d %d",
						k, sy.stats.CSPsUsed, sy.primarySeenRound, ref.stats.CSPsUsed, ref.primarySeenRound)
				}
				var want []uint32
				for r := range ref.collected {
					want = append(want, r)
				}
				slices.Sort(want)
				if got := sy.peers.liveRounds(); !slices.Equal(got, want) {
					t.Fatalf("converge %d: table keeps rounds %v, reference %v", k, got, want)
				}
				adv := 1 + uint32(sel%3)
				sy.round += adv
				ref.round += adv
				continue
			}
			round := k - 3 + uint32(sel%8)
			if sel%8 == 7 {
				round = k + 4 + uint32(extra)<<(sel>>3)
			}
			rx := now
			if kind&0x20 != 0 {
				rx += step
			}
			e := peerEntry{
				iv:      interval.New(now-timefmt.Stamp(extra), timefmt.Duration(node)+1, timefmt.Duration(extra)+1),
				rx:      rx,
				primary: kind&0x10 != 0,
			}
			sy.peers.put(round, uint16(node%16), e)
			ref.put(round, uint16(node%16), e)
		}
	})
}
