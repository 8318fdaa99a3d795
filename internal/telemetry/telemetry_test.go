package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestNilHandlesAreNoOps: the entire disabled path — nil registry, nil
// handles — must be callable and free.
func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	r.GaugeFunc("f", func() float64 { return 1 })
	r.SetShard(3)
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	h.ObserveN(4, 2)
	if c.Value() != 0 || g.Value() != 0 || g.Hi() != 0 || h.N() != 0 {
		t.Fatalf("nil handles leaked state")
	}
	if r.Shard() != -1 {
		t.Fatalf("nil registry shard = %d", r.Shard())
	}
	var w *Watchdog
	w.Observe(Snapshot{})
	if w.Flags() != nil {
		t.Fatalf("nil watchdog flagged")
	}
	var m *Monitor
	m.Begin("x", 1)
	m.CellStart(0, "c")
	m.CellEnd(0, "c", 1, nil, false)
	m.Publish(Snapshot{})
	if st := m.Status(); st.Total != 0 {
		t.Fatalf("nil monitor status = %+v", st)
	}
}

// TestDisabledPathAllocFree pins the core acceptance property: with no
// registry configured, every update site costs zero allocations.
func TestDisabledPathAllocFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1.5)
		g.Add(0.5)
		h.Observe(1e-6)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v allocs/op", allocs)
	}
}

// TestEnabledSteadyStateAllocFree: after handles exist, updates allocate
// nothing either.
func TestEnabledSteadyStateAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		h.Observe(1e-3)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady state allocates %v allocs/op", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatalf("second lookup returned a new counter")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Set(3)
	if g.Value() != 3 || g.Hi() != 10 {
		t.Fatalf("gauge v=%g hi=%g, want 3/10", g.Value(), g.Hi())
	}
	a := r.Gauge("acc")
	a.Add(1.5)
	a.Add(2.5)
	if a.Value() != 4 || a.Hi() != 4 {
		t.Fatalf("accumulator v=%g hi=%g, want 4/4", a.Value(), a.Hi())
	}
}

// TestHistogramQuantiles checks relative accuracy on a known distribution.
func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	// 1..10000 µs uniform: p50 ≈ 5000 µs, p99 ≈ 9900 µs.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	st := h.stats()
	if st.N != 10000 {
		t.Fatalf("n = %d", st.N)
	}
	if st.Min != 1e-6 || st.Max != 1e-2 {
		t.Fatalf("min/max = %g/%g", st.Min, st.Max)
	}
	if rel := math.Abs(st.P50-5e-3) / 5e-3; rel > 0.07 {
		t.Fatalf("p50 = %g, rel err %.3f > 7%%", st.P50, rel)
	}
	if rel := math.Abs(st.P99-9.9e-3) / 9.9e-3; rel > 0.07 {
		t.Fatalf("p99 = %g, rel err %.3f > 7%%", st.P99, rel)
	}
	if mean := st.Mean; math.Abs(mean-5.0005e-3)/5e-3 > 1e-9 {
		t.Fatalf("mean = %g (exact sum expected)", mean)
	}
}

func TestHistogramEdges(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	h.Observe(0)
	h.Observe(-1)
	h.Observe(1e300) // overflow bin
	h.ObserveN(2.5, 3)
	st := h.stats()
	if st.N != 6 {
		t.Fatalf("n = %d, want 6", st.N)
	}
	if st.Min != -1 || st.Max != 1e300 {
		t.Fatalf("min/max = %g/%g", st.Min, st.Max)
	}
	// p50 (rank 2 of 0-indexed 5) falls in the 2.5 bin.
	if st.P50 < 2.3 || st.P50 > 2.7 {
		t.Fatalf("p50 = %g, want ≈2.5", st.P50)
	}
	if (&Histogram{}).stats() != (HistValue{}) {
		t.Fatalf("empty histogram stats non-zero")
	}
}

// TestCaptureMerge: counters and hists sum across registries; gauges from
// shard-tagged registries keep per-shard keys.
func TestCaptureMerge(t *testing.T) {
	a, b := New(), New()
	a.SetShard(0)
	b.SetShard(1)
	a.Counter("ev").Add(10)
	b.Counter("ev").Add(32)
	a.Gauge("depth").Set(5)
	b.Gauge("depth").Set(7)
	a.Histogram("lat").Observe(1e-3)
	b.Histogram("lat").Observe(4e-3)
	b.GaugeFunc("pool", func() float64 { return 99 })
	s := Capture(12.5, a, b, nil)
	if s.T != 12.5 {
		t.Fatalf("t = %g", s.T)
	}
	if s.Counters["ev"] != 42 {
		t.Fatalf("merged counter = %d, want 42", s.Counters["ev"])
	}
	if s.Gauges["depth@0"].V != 5 || s.Gauges["depth@1"].V != 7 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if s.Gauges["pool@1"].V != 99 {
		t.Fatalf("gauge func = %+v", s.Gauges["pool@1"])
	}
	if h := s.Hists["lat"]; h.N != 2 || h.Min != 1e-3 || h.Max != 4e-3 {
		t.Fatalf("merged hist = %+v", h)
	}
	// Untagged registry gauges keep plain keys.
	c := New()
	c.Gauge("depth").Set(1)
	if s2 := Capture(0, c); s2.Gauges["depth"].V != 1 {
		t.Fatalf("untagged gauge key missing: %+v", s2.Gauges)
	}
}

// TestSnapshotJSONDeterministic: marshaling sorts map keys, so two
// captures of identical state yield identical bytes.
func TestSnapshotJSONDeterministic(t *testing.T) {
	mk := func() []byte {
		r := New()
		for _, n := range []string{"z", "a", "m", "q"} {
			r.Counter(n).Add(7)
			r.Gauge("g." + n).Set(1)
		}
		r.Histogram("h").ObserveN(1e-3, 5)
		b, err := json.Marshal(Capture(3, r))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	x, y := mk(), mk()
	if string(x) != string(y) {
		t.Fatalf("non-deterministic snapshot JSON:\n%s\n%s", x, y)
	}
	if !strings.Contains(string(x), `"t":3`) {
		t.Fatalf("snapshot JSON missing t: %s", x)
	}
	// Empty snapshot omits the maps entirely.
	e, _ := json.Marshal(Capture(1))
	if string(e) != `{"t":1}` {
		t.Fatalf("empty snapshot = %s", e)
	}
}

func TestWatchdogContainmentAndConvergence(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{})
	w.Observe(Snapshot{Counters: map[string]uint64{MetricContainment: 0}})
	if w.Flags() != nil {
		t.Fatalf("flagged healthy snapshot: %v", w.Flags())
	}
	// One violation and one failed round already flag: the limit is 0.
	w.Observe(Snapshot{Counters: map[string]uint64{
		MetricContainment:       1,
		MetricConvergenceFailed: 1,
	}})
	got := w.Flags()
	want := []string{"containment-violation", "convergence-failures"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	// Flags latch even after counters stop growing.
	w.Observe(Snapshot{})
	if len(w.Flags()) != 2 {
		t.Fatalf("flags unlatched: %v", w.Flags())
	}
}

func TestWatchdogQueueRunaway(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{})
	w.Observe(Snapshot{Gauges: map[string]GaugeValue{MetricQueueDepth + "@2": {V: 5, Hi: 1 << 20}}})
	if w.Flags() != nil {
		t.Fatalf("depth at the limit flagged: %v", w.Flags())
	}
	w.Observe(Snapshot{Gauges: map[string]GaugeValue{MetricQueueDepth + "@2": {V: 5, Hi: 1<<20 + 1}}})
	if f := w.Flags(); len(f) != 1 || f[0] != "queue-depth-runaway" {
		t.Fatalf("flags = %v", f)
	}
}

func TestWatchdogShardStall(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{})
	snap := func(fired uint64, s0, s1 float64) Snapshot {
		return Snapshot{
			Counters: map[string]uint64{MetricEventsFired: fired},
			Gauges: map[string]GaugeValue{
				MetricShardEvents + "@0": {V: s0},
				MetricShardEvents + "@1": {V: s1},
			},
		}
	}
	w.Observe(snap(100, 50, 50))
	w.Observe(snap(200, 100, 50)) // shard 1 frozen while cluster advances
	w.Observe(snap(300, 150, 50))
	if w.Flags() != nil {
		t.Fatalf("stall flagged too early: %v", w.Flags())
	}
	w.Observe(snap(400, 200, 50)) // third frozen snapshot
	if f := w.Flags(); len(f) != 1 || f[0] != "shard-stall@1" {
		t.Fatalf("flags = %v, want [shard-stall@1]", f)
	}
	// A healthy cluster where everything pauses (no fired growth) never
	// counts as a stall.
	w2 := NewWatchdog(WatchdogConfig{})
	for range 4 {
		w2.Observe(snap(100, 50, 50))
	}
	if w2.Flags() != nil {
		t.Fatalf("global pause misflagged: %v", w2.Flags())
	}
}

func TestPromRendering(t *testing.T) {
	var sb strings.Builder
	snap := Snapshot{
		T:        2,
		Counters: map[string]uint64{"sim.events_fired": 7},
		Gauges:   map[string]GaugeValue{"sim.queue_depth@3": {V: 4, Hi: 9}},
		Hists:    map[string]HistValue{"sync.fused_width_s": {N: 1, P50: 2e-6, P90: 2e-6, P99: 2e-6, Mean: 2e-6}},
	}
	WriteProm(&sb, CampaignStatus{Total: 4, Done: 1, Snapshot: &snap})
	out := sb.String()
	for _, want := range []string{
		"nti_cells_total 4",
		"nti_sim_events_fired 7",
		`nti_sim_queue_depth{shard="3"} 4`,
		`nti_sim_queue_depth_hi{shard="3"} 9`,
		`nti_sync_fused_width_s{quantile="0.99"} 2e-06`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}
