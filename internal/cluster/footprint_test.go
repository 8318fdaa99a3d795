package cluster

import (
	"runtime"
	"testing"
)

// TestBuildBytesPerNode pins the build footprint of a node as a count:
// the bytes cluster.New allocates per node of a 64-node prototype. Each
// NTI's 256 KB SRAM is backed page by page on first write and the build
// writes none of it, so a node costs about 4.6 KB; a flat array per NTI
// puts the figure near 274 KB. The bound leaves room for small growth
// but fails if the build starts backing even one 4 KB page per node.
func TestBuildBytesPerNode(t *testing.T) {
	const nodes = 64
	perNode := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New(Defaults(nodes, 7))
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return (after.TotalAlloc - before.TotalAlloc) / nodes
	}
	// The runtime can add stray allocations to a build but never removes
	// one, so the least of three runs is the build's own.
	got := perNode()
	for range 2 {
		got = min(got, perNode())
	}
	t.Logf("cluster.New(Defaults(%d, 7)): %d bytes per node", nodes, got)
	const bound = 8 << 10
	if got > bound {
		t.Errorf("cluster.New allocates %d bytes per node, want <= %d", got, bound)
	}
}

// TestLiveHeapFlatInSimTime pins the live heap of a running cluster as
// flat in simulated time. The UTCSU's LTU and ACU and each oscillator
// keep only their previous and current segment, so 300 more simulated
// seconds of an 8-node cluster leave the heap where it was; keeping
// every segment grew it by about 0.5 MB over the same span.
func TestLiveHeapFlatInSimTime(t *testing.T) {
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	growth := func() int64 {
		c := New(Defaults(8, 7))
		c.Start(1)
		c.RunUntil(60)
		at60 := liveHeap()
		c.RunUntil(360)
		at360 := liveHeap()
		runtime.KeepAlive(c)
		return at360 - at60
	}
	// Stray runtime allocations only add to one run's figure, so the
	// least of three is the cluster's own.
	got := growth()
	for range 2 {
		got = min(got, growth())
	}
	t.Logf("live heap growth of Defaults(8) from 60 to 360 sim-s: %d bytes", got)
	const bound = 32 << 10
	if got > bound {
		t.Errorf("live heap grew %d bytes from 60 to 360 sim-s, want <= %d", got, bound)
	}
}

// TestFramePathAllocFree pins the steady-state frame path at zero
// allocations. The flat LAN covers the COMCO's pooled DMA bursts
// and the medium's deliveries; the two-segment
// cluster adds the gateway's LinkPort, its Relay and the cross-shard
// WAN hops. Each cluster warms up for 30 sim-s, AllocsPerRun runs its
// own warm-up call of 100 sim-s, and the count covers the next
// 100 sim-s exactly (one run, so no floored mean).
//
// The figure is not 0: pools grow lazily, so a new high of frames in
// flight still allocates. In this window that is one kernel rxJob (the
// job and its two bound methods, 3 objects) on each cluster, when one
// node's receive backlog reaches a new high. Any allocation per frame,
// per relayed frame or per uplink frame adds at least 100.
func TestFramePathAllocFree(t *testing.T) {
	wan := Defaults(8, 7)
	wan.Segments = 2
	wan.GatewaysPerLink = 1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"Defaults(8)", Defaults(8, 7)}, {"two segments", wan}} {
		c := New(tc.cfg)
		c.Start(1)
		until := 30.0
		c.RunUntil(until)
		got := testing.AllocsPerRun(1, func() {
			until += 100
			c.RunUntil(until)
		})
		t.Logf("%s: %v allocations from %v to %v sim-s", tc.name, got, until-100, until)
		const residual = 3
		if got > residual {
			t.Errorf("%s: %v allocations in 100 warm sim-s, want <= %d (pool growth only)", tc.name, got, residual)
		}
	}
}
