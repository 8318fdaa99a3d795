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
