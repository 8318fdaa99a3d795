package clocksync

import (
	"runtime"
	"testing"

	"ntisim/internal/network"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// TestSteadyStateAllocationsPerRound pins the per-round heap footprint
// of a running synchronizer: after warm-up the converge hot path reuses
// the Fuser scratch, the interval/id slices, and the pooled per-round
// peer maps, so a steady-state round should allocate (almost) nothing.
// The budget below covers the whole stack — kernel events, CSP frames,
// medium, synchronizer — per (node × round); regressions that
// reintroduce per-round garbage trip it immediately.
func TestSteadyStateAllocationsPerRound(t *testing.T) {
	s := sim.New(3)
	med := network.NewMedium(s, network.DefaultLAN())
	const nodes = 3
	syncs := make([]*Synchronizer, nodes)
	for i := 0; i < nodes; i++ {
		n, u := mkNode(s, med, uint16(i))
		syncs[i] = New(n, UTCSUClock{UTCSU: u}, Params{
			DelayMin: timefmt.DurationFromSeconds(40e-6),
			DelayMax: timefmt.DurationFromSeconds(120e-6),
		})
		syncs[i].Start()
	}
	// Warm up: initial synchronization, scratch growth, pool fill.
	s.RunUntil(20)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const windowS = 30
	s.RunUntil(20 + windowS)
	runtime.ReadMemStats(&after)

	for _, sy := range syncs {
		if sy.Stats().Rounds < 40 {
			t.Fatalf("synchronizer ran only %d rounds; window not steady-state", sy.Stats().Rounds)
		}
	}
	// One round per second per node over the measured window.
	windowRounds := uint64(nodes * windowS)
	perRound := float64(after.Mallocs-before.Mallocs) / float64(windowRounds)
	t.Logf("%d mallocs over ~%d node-rounds (%.1f per node-round)",
		after.Mallocs-before.Mallocs, windowRounds, perRound)
	// ~3.0 measured once the duty timers became fixed registers and
	// CSP headers encode into an array (~11.1 after pooling the
	// kernel's per-frame rx jobs, ~15.3 before that); 16 keeps headroom
	// for platform variance without readmitting any of those closures.
	const budget = 16.0
	if perRound > budget {
		t.Errorf("steady-state allocations = %.1f per node-round, budget %.0f", perRound, budget)
	}
}
