package clocksync

import (
	"runtime"
	"testing"
	"time"

	"ntisim/internal/network"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// TestSteadyStateAllocationsPerRound pins the per-round heap footprint
// of a running synchronizer: after warm-up the converge hot path reuses
// the Fuser scratch, the interval slices and the peer table's round
// buckets, and the COMCO reuses its transmit buffers, so a
// steady-state round allocates nothing.
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
	settleHeap(&before)
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
	// 0 measured once the COMCO lent pooled transmit buffers to the
	// medium (~3.0 before, 2.5 of it the per-frame buffer and callback;
	// ~11.1 before pooling the kernel's per-frame rx jobs, ~15.3 before
	// that). The run is deterministic, so any allocation per frame or
	// per round trips it.
	const budget = 0.0
	if perRound > budget {
		t.Errorf("steady-state allocations = %.1f per node-round, budget %.0f", perRound, budget)
	}
}

// settleHeap collects garbage, waits until the process stops
// allocating, and leaves the settled counters in ms. MemStats.Mallocs
// counts every goroutine, and each GC wakes runtime goroutines that
// allocate on their own schedule: the unique package's map cleanup
// (linked in through telemetry's net/http) takes a few objects after
// every cycle. Read straight after runtime.GC, those land in the
// measured window whenever the scheduler runs them late, as it does on
// a loaded machine or under -race. With the process quiet and a
// zero-allocation window, no GC starts inside the window, so nothing
// but the simulation is counted.
func settleHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(ms)
	// Three quiet 5 ms naps in a row; give up after a second, and let
	// the window count whatever is still running.
	for i, quiet := 0, 0; quiet < 3 && i < 200; i++ {
		prev := ms.Mallocs
		time.Sleep(5 * time.Millisecond)
		runtime.ReadMemStats(ms)
		if ms.Mallocs == prev {
			quiet++
		} else {
			quiet = 0
		}
	}
}
