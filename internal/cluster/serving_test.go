package cluster

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"ntisim/internal/service"
)

// servingConfig is a small sharded topology with a client population,
// big enough to exercise regional skew and gateway exclusion.
func servingConfig(seed uint64) Config {
	cfg := Defaults(4, seed)
	cfg.Segments = 2
	cfg.Sync.F = 0
	cfg.Serving = service.Config{
		Clients:      50000,
		Arrival:      "mmpp",
		RegionalSkew: 1.5,
	}
	return cfg
}

// servingCost is what a serving window cost the kernel.
type servingCost struct {
	events  uint64 // events fired over the window
	mallocs uint64 // heap allocations over the window
}

// runServing builds, syncs and serves for windowS, returning the report
// and the window's cost.
func runServing(t *testing.T, cfg Config, windowS float64) (service.Stats, *Cluster, servingCost) {
	t.Helper()
	c := New(cfg)
	c.Start(c.Now() + 0.5)
	c.RunUntil(c.Now() + 3) // settle past the initial step transients
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events := c.EventCount()
	begin := c.Now()
	c.StartServing(begin)
	c.RunUntil(begin + windowS)
	runtime.ReadMemStats(&after)
	cost := servingCost{events: c.EventCount() - events, mallocs: after.Mallocs - before.Mallocs}
	return c.ServingReport(c.Now() - begin), c, cost
}

func TestServingShardCountInvariance(t *testing.T) {
	cfg1 := servingConfig(99)
	cfg1.Shards = 1
	st1, _, _ := runServing(t, cfg1, 5)

	cfg2 := servingConfig(99)
	cfg2.Shards = 2
	st2, _, _ := runServing(t, cfg2, 5)

	if st1.Queries == 0 {
		t.Fatal("no queries served")
	}
	if st1 != st2 {
		t.Errorf("serving stats differ across shard worker counts:\n 1: %+v\n 2: %+v", st1, st2)
	}
	if !(st1.ErrP50S <= st1.ErrP99S && st1.ErrP99S <= st1.ErrP999S && st1.ErrP999S <= st1.ErrMaxS) {
		t.Errorf("percentiles out of order: %+v", st1)
	}
	// Open-loop mmpp preserves the nominal mean rate: 50000 clients x
	// 0.1 qps = 5000 qps. Short-window burst variance is large; accept
	// a broad band around it.
	if st1.QPS < 2000 || st1.QPS > 12000 {
		t.Errorf("QPS = %.0f, want ~5000", st1.QPS)
	}
}

func TestServingGatewaysExcluded(t *testing.T) {
	cfg := servingConfig(7)
	c := New(cfg)
	if len(c.ServingGens) != cfg.Nodes {
		t.Fatalf("generators = %d, want one per regular node = %d (gateways excluded)",
			len(c.ServingGens), cfg.Nodes)
	}
	gateways := 0
	for _, m := range c.Members {
		if m.Segment < 0 {
			gateways++
		}
	}
	if gateways == 0 {
		t.Fatal("topology built no gateways; test is vacuous")
	}
	if st := c.ServingReport(1); st.Nodes != cfg.Nodes {
		t.Errorf("Stats.Nodes = %d, want %d", st.Nodes, cfg.Nodes)
	}
}

func TestServingRegionalSkew(t *testing.T) {
	cfg := servingConfig(11)
	cfg.Serving.Arrival = "poisson"
	cfg.Serving.RegionalSkew = 3
	_, c, _ := runServing(t, cfg, 10)
	perSeg := map[int]uint64{}
	for i, g := range c.ServingGens {
		perSeg[c.Members[i].Segment] += g.Queries()
	}
	// Weight of segment 1 is 3x segment 0; the realized ratio should be
	// comfortably above 2 after 10 s at these rates.
	if perSeg[1] < 2*perSeg[0] {
		t.Errorf("segment query split = %v, want seg 1 >= 2x seg 0 under skew 3", perSeg)
	}
}

func TestServingUnshardedMeanRate(t *testing.T) {
	cfg := Defaults(2, 5)
	cfg.Serving = service.Config{Clients: 10000}
	st, _, _ := runServing(t, cfg, 10)
	// 10000 clients x 0.1 qps = 1000 qps homogeneous poisson; 10 s
	// window -> ~10000 queries with sub-percent shot noise.
	want := float64(st.Clients) * service.ClientQPS * st.WindowS
	if math.Abs(float64(st.Queries)-want) > 0.05*want {
		t.Errorf("queries = %d, want %.0f +- 5%%", st.Queries, want)
	}
	if st.ErrMaxS <= 0 || st.ErrMaxS > 1e-3 {
		t.Errorf("served max error = %g s, want small positive", st.ErrMaxS)
	}
}

// TestServingCostIndependentOfPopulation pins the claim that serving
// cost does not grow with the client population: arrivals are batched
// into one Poisson draw per node per tick, so 10⁷ clients fire exactly
// the events and allocations of 10⁵ while serving ~100× the queries.
func TestServingCostIndependentOfPopulation(t *testing.T) {
	for _, arrival := range service.Arrivals() {
		t.Run(arrival, func(t *testing.T) {
			run := func(clients int) (service.Stats, servingCost) {
				cfg := servingConfig(3)
				cfg.Shards = 1 // one goroutine: the malloc count is the simulation's alone
				cfg.Serving.Clients = clients
				cfg.Serving.Arrival = arrival
				st, _, cost := runServing(t, cfg, 5)
				// The runtime can add a stray allocation to a window but never
				// removes one, so the least of three runs is the simulation's.
				for range 2 {
					_, _, again := runServing(t, cfg, 5)
					cost.mallocs = min(cost.mallocs, again.mallocs)
				}
				return st, cost
			}
			small, smallCost := run(1e5)
			large, largeCost := run(1e7)
			t.Logf("1e5 clients: %d queries, %+v; 1e7 clients: %d queries, %+v",
				small.Queries, smallCost, large.Queries, largeCost)
			if smallCost.events == 0 || smallCost.events != largeCost.events {
				t.Errorf("events over the window: %d at 1e5 clients, %d at 1e7; want equal and nonzero",
					smallCost.events, largeCost.events)
			}
			if smallCost.mallocs != largeCost.mallocs {
				t.Errorf("mallocs over the window: %d at 1e5 clients, %d at 1e7; want equal",
					smallCost.mallocs, largeCost.mallocs)
			}
			if small.Queries == 0 {
				t.Fatal("no queries served")
			}
			if r := float64(large.Queries) / float64(small.Queries); r < 90 || r > 110 {
				t.Errorf("queries scaled %.1fx from 1e5 to 1e7 clients, want ~100x", r)
			}
		})
	}
}

// MeasureDelay RTT probes are segment-local unicast; the guard must
// reject probe pairs homed on different shards. Three segments give a
// pair (first and last node) separated by two WAN hops.
func TestMeasureDelayCrossShardGuardThreeSegments(t *testing.T) {
	cfg := Defaults(6, 21)
	cfg.Segments = 3
	cfg.Sync.F = 0
	c := New(cfg)
	if a, b := c.Members[0], c.Members[5]; a.Shard == b.Shard {
		t.Fatalf("test expects members 0 and 5 on different shards, got %d and %d", a.Shard, b.Shard)
	}
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Error("cross-shard MeasureDelay did not panic")
				return
			}
			if !strings.Contains(p.(string), "cross shards") {
				t.Errorf("panic = %v, want cross-shards guard message", p)
			}
		}()
		c.MeasureDelay(0, 5, 4)
	}()
	// Same-segment probes must still work after the refused call.
	if b := c.MeasureDelay(0, 1, 4); b.Samples == 0 {
		t.Errorf("same-shard MeasureDelay returned empty bounds: %+v", b)
	}
}
