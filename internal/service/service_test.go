package service

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ntisim/internal/sim"
)

func TestArrivalRegistry(t *testing.T) {
	names := Arrivals()
	if !reflect.DeepEqual(names, []string{"mmpp", "poisson"}) {
		t.Fatalf("Arrivals() = %v", names)
	}
	for _, n := range names {
		if !ValidArrival(n) {
			t.Errorf("ValidArrival(%q) = false", n)
		}
	}
	if ValidArrival("uniform") {
		t.Error("ValidArrival accepted unknown name")
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("New with unknown arrival did not panic")
		}
		if !strings.Contains(p.(string), "choices: mmpp, poisson") {
			t.Errorf("panic %v does not list the valid choices", p)
		}
	}()
	New(sim.New(1), Config{Clients: 1, Arrival: "uniform"}, 0, 1, 1, func() float64 { return 0 })
}

// runGenerator drives one generator for spanS seconds of sim time.
func runGenerator(cfg Config, qps, spanS float64, sample func() float64) *Generator {
	s := sim.New(1)
	g := New(s, cfg, 0, sim.DeriveSeed(9, "service/node/0"), qps, sample)
	g.Start(s.Now())
	s.RunUntil(spanS)
	return g
}

func TestPoissonGeneratorMeanRate(t *testing.T) {
	g := runGenerator(Config{Clients: 1}, 500, 20, func() float64 { return 1e-6 })
	want := 500.0 * 20
	got := float64(g.Queries())
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("queries = %.0f, want %.0f +- 5%%", got, want)
	}
	if g.Sketch().Count() != g.Queries() {
		t.Errorf("sketch count %d != queries %d", g.Sketch().Count(), g.Queries())
	}
	if p50 := g.Sketch().Quantile(0.5); p50 != 1e-6 {
		t.Errorf("constant 1µs error sampled as p50 %g", p50)
	}
}

func TestMMPPPreservesMeanRate(t *testing.T) {
	cfg := Config{Clients: 1, Arrival: "mmpp", BurstFactor: 10, BurstFrac: 0.2, BurstDwellS: 0.5}
	// Long horizon so many burst/calm cycles average out.
	g := runGenerator(cfg, 200, 300, func() float64 { return 1e-6 })
	want := 200.0 * 300
	got := float64(g.Queries())
	if math.Abs(got-want) > 0.10*want {
		t.Errorf("mmpp long-run queries = %.0f, want %.0f +- 10%%", got, want)
	}
}

func TestMMPPBurstsAreBursty(t *testing.T) {
	// With a huge burst factor and rare bursts, per-window counts must
	// be visibly bimodal: compare windowed maxima against the mean.
	cfg := Config{Clients: 1, Arrival: "mmpp", BurstFactor: 50, BurstFrac: 0.05, BurstDwellS: 1}
	s := sim.New(1)
	g := New(s, cfg, 0, 77, 100, nil)
	g.sample = func() float64 { return 0 }
	g.Start(0)
	var counts []uint64
	last := uint64(0)
	for w := 0; w < 100; w++ {
		s.RunUntil(float64(w + 1))
		counts = append(counts, g.Queries()-last)
		last = g.Queries()
	}
	var max, sum uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	mean := float64(sum) / float64(len(counts))
	if float64(max) < 5*mean {
		t.Errorf("windowed max %d vs mean %.1f: bursts not visible", max, mean)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() Stats {
		g := runGenerator(Config{Clients: 100, Arrival: "mmpp"}, 300, 10, func() float64 { return 2e-6 })
		return Collect([]*Generator{g}, 100, 10)
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("identical runs differ:\n a: %+v\n b: %+v", a, b)
	}
	if a.Queries == 0 || a.QPS == 0 {
		t.Errorf("no traffic generated: %+v", a)
	}
}

// The steady-state tick path — modulating chain, Poisson draw, error
// sample, sketch update — must not allocate: populations of millions
// cost the same per tick as thousands.
func TestGeneratorSteadyStateAllocFree(t *testing.T) {
	s := sim.New(1)
	// 1e6 clients x 0.1 qps on one node: lambda = 1000 per 10 ms tick.
	g := New(s, Config{Clients: 1000000, Arrival: "mmpp"}, 0, 5, 100000, func() float64 { return 3e-6 })
	g.Start(s.Now())
	s.RunUntil(1) // warm up the ticker and event pool
	allocs := testing.AllocsPerRun(200, func() {
		s.RunUntil(s.Now() + tickS)
	})
	if allocs != 0 {
		t.Errorf("steady-state serving tick allocates %.2f/op, want 0", allocs)
	}
	if g.Queries() == 0 {
		t.Error("allocation-pinned run served no queries")
	}
}

func TestCollectMergesNodes(t *testing.T) {
	s := sim.New(1)
	sample := func() float64 { return 1e-6 }
	var gens []*Generator
	for i := 0; i < 3; i++ {
		g := New(s, Config{Clients: 300}, i, uint64(i+1), 100, sample)
		g.Start(0)
		gens = append(gens, g)
	}
	s.RunUntil(5)
	st := Collect(gens, 300, 5)
	var total uint64
	for _, g := range gens {
		total += g.Queries()
	}
	if st.Queries != total || st.Nodes != 3 || st.Clients != 300 {
		t.Errorf("collect mismatch: %+v vs total %d", st, total)
	}
	if want := float64(total) / 5; st.QPS != want {
		t.Errorf("QPS = %g, want %g", st.QPS, want)
	}
}
