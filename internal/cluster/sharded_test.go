package cluster

import (
	"runtime"
	"testing"

	"ntisim/internal/metrics"
)

// shardedBase is the reference sharded topology of these tests:
// 2 segments × 4 nodes + F+1 = 2 gateways on the link.
func shardedBase(seed uint64) Config {
	cfg := Defaults(8, seed)
	cfg.Sync.F = 1
	cfg.Segments = 2
	return cfg
}

func TestShardedTopologyShape(t *testing.T) {
	cfg := shardedBase(31)
	cfg.Shards = 1
	c := New(cfg)
	if c.Group == nil {
		t.Fatal("sharded cluster has no Group")
	}
	if got := c.Group.Shards(); got != 2 {
		t.Fatalf("shards = %d, want 2", got)
	}
	if len(c.Media) != 2 {
		t.Fatalf("media = %d", len(c.Media))
	}
	if len(c.Members) != 8+2 {
		t.Fatalf("members = %d, want 10", len(c.Members))
	}
	gws := 0
	for _, m := range c.Members {
		if m.Segment == -1 {
			gws++
			if m.Node.Channels() != 2 {
				t.Errorf("gateway has %d channels", m.Node.Channels())
			}
			if m.Shard != 0 {
				t.Errorf("gateway homed on shard %d, want 0 (lower adjacent segment)", m.Shard)
			}
		} else {
			if m.Node.Channels() != 1 {
				t.Errorf("plain node has %d channels", m.Node.Channels())
			}
			if m.Shard != m.Segment {
				t.Errorf("node %d on shard %d, segment %d", m.Index, m.Shard, m.Segment)
			}
		}
	}
	if gws != 2 {
		t.Errorf("gateways = %d", gws)
	}
}

func TestShardedNodesMustDivide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7 nodes over 2 segments")
		}
	}()
	cfg := shardedBase(31)
	cfg.Nodes = 7
	New(cfg)
}

// runShardedTrajectory runs a topology and returns the per-sample
// cluster precision and per-node offsets — the full observable state
// trajectory, compared exactly across configurations that must agree.
func runShardedTrajectory(cfg Config) (precision []float64, offsets [][]float64) {
	c := New(cfg)
	c.Start(1)
	c.RunUntil(20)
	for x := 20.0; x <= 40; x += 2 {
		c.RunUntil(x)
		snap := c.Snapshot()
		precision = append(precision, snap.Precision)
		var offs []float64
		for _, m := range c.Members {
			o, _, _ := m.OffsetAndBounds()
			offs = append(offs, o)
		}
		offsets = append(offsets, offs)
	}
	return precision, offsets
}

// TestShardedWorkerCountByteIdentity is the tentpole gate at cluster
// level: the full state trajectory must be bit-identical whether the
// shards run sequentially (the single-kernel baseline) or on N worker
// goroutines.
func TestShardedWorkerCountByteIdentity(t *testing.T) {
	one, two := shardedBase(77), shardedBase(77)
	one.Shards, two.Shards = 1, 2
	sameTrajectory(t, "1 worker", one, "2 workers", two)
}

// TestShardsZeroIsSequential: the default runs the segments on the
// driving goroutine alone, however many cores the process may use.
func TestShardsZeroIsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Defaults(16, 5)
	cfg.Sync.F = 1
	cfg.Segments = 4
	if got := New(cfg).Group.Workers(); got != 1 {
		t.Fatalf("Shards=0 over 4 segments at GOMAXPROCS=4: %d workers, want 1", got)
	}
}

// TestOneSegmentIsFlatLAN: Segments 0 and 1 both build the flat LAN on
// a one-shard Group, and their trajectories are bit-identical.
func TestOneSegmentIsFlatLAN(t *testing.T) {
	flat, one := Defaults(4, 77), Defaults(4, 77)
	one.Segments = 1
	for _, cfg := range []Config{flat, one} {
		if c := New(cfg); c.Group.Shards() != 1 || len(c.Media) != 1 {
			t.Fatalf("Segments=%d: %d shards, %d media; want one of each", cfg.Segments, c.Group.Shards(), len(c.Media))
		}
	}
	sameTrajectory(t, "Segments=0", flat, "Segments=1", one)
}

// sameTrajectory fails the test unless configs a and b produce
// bit-identical trajectories.
func sameTrajectory(t *testing.T, na string, a Config, nb string, b Config) {
	t.Helper()
	p1, o1 := runShardedTrajectory(a)
	p2, o2 := runShardedTrajectory(b)
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("sample counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("sample %d: precision %v (%s) != %v (%s)", i, p1[i], na, p2[i], nb)
		}
		for j := range o1[i] {
			if o1[i][j] != o2[i][j] {
				t.Fatalf("sample %d node %d: offset %v (%s) != %v (%s)", i, j, o1[i][j], na, o2[i][j], nb)
			}
		}
	}
}

// TestShardedCouplesSegments: both segments converge individually and
// the relayed gateway CSPs keep them coupled globally.
func TestShardedCouplesSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("long segmented run")
	}
	cfg := shardedBase(22)
	cfg.Shards = 2
	c := New(cfg)
	b := c.MeasureDelay(0, 1, 12)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(b)
	}
	c.Start(c.Now() + 1)
	c.RunUntil(c.Now() + 40)
	var global metrics.Series
	start := c.Now()
	for x := start; x <= start+60; x += 2 {
		c.RunUntil(x)
		snap := c.Snapshot()
		global.Add(snap.Precision)
		// Interval containment must survive the relay rewrite: every
		// member's accuracy interval keeps true time inside it.
		for _, m := range c.Members {
			if _, lo, hi := m.OffsetAndBounds(); lo > 0 || hi < 0 {
				t.Fatalf("t=%v node %d: accuracy interval [%v, %v] lost true time",
					x, m.Index, lo, hi)
			}
		}
	}
	if global.Max() > 15e-6 {
		t.Errorf("cross-segment precision %v", global.Max())
	}
	if s0 := c.SegmentPrecision(0); s0 > 6e-6 {
		t.Errorf("segment 0 precision %v", s0)
	}
	if s1 := c.SegmentPrecision(1); s1 > 6e-6 {
		t.Errorf("segment 1 precision %v", s1)
	}
}

// TestShardedThreeSegmentsParallel runs a 3-segment chain on 3 workers
// under the race detector (make race runs this package with -race) and
// checks global convergence — the CI race gate for the sharded engine.
func TestShardedThreeSegmentsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("long segmented run")
	}
	cfg := Defaults(9, 23)
	cfg.Sync.F = 1
	cfg.Segments = 3
	cfg.GatewaysPerLink = 2
	cfg.Shards = 3
	c := New(cfg)
	if len(c.Members) != 9+2*2 {
		t.Fatalf("members = %d", len(c.Members))
	}
	c.Start(1)
	c.RunUntil(60)
	var global metrics.Series
	for x := 60.0; x <= 100; x += 2 {
		c.RunUntil(x)
		global.Add(c.Snapshot().Precision)
	}
	if global.Max() > 25e-6 {
		t.Errorf("three-segment precision %v", global.Max())
	}
}
