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
	got := float64(g.queries)
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("queries = %.0f, want %.0f +- 5%%", got, want)
	}
	if g.sk.q.N != g.queries {
		t.Errorf("sketch count %d != queries %d", g.sk.q.N, g.queries)
	}
	if p50 := g.sk.Quantile(0.5); p50 != 1e-6 {
		t.Errorf("constant 1µs error sampled as p50 %g", p50)
	}
}

func TestMMPPPreservesMeanRate(t *testing.T) {
	// One burst/calm cycle lasts burstDwellS/burstFrac = 20 s on average,
	// and over n cycles the time-averaged rate has a relative standard
	// error of (B−1)·f(1−f)·√(2/n) / (1−f+f·B) ≈ 0.52/√n. 8000 s give
	// n ≈ 400 cycles, so ±10% is four standard errors.
	g := runGenerator(Config{Clients: 1, Arrival: "mmpp"}, 200, 8000, func() float64 { return 1e-6 })
	want := 200.0 * 8000
	got := float64(g.queries)
	if math.Abs(got-want) > 0.10*want {
		t.Errorf("mmpp long-run queries = %.0f, want %.0f +- 10%%", got, want)
	}
}

// TestMMPPBurstsAreBursty checks what makes the mmpp stream bursty: the
// chain spends burstFrac of the time in the burst state, and a burst
// tick draws burstFactor times the arrivals of a calm tick. Each tick is
// classified by the state its draw used. The tolerances are four
// standard errors of what was seen: for the time fraction f over n
// burst/calm cycles f(1−f)·√(2/n), and for the rate ratio the Poisson
// error √(1/Nb + 1/Nc) of the burst and calm arrival counts.
func TestMMPPBurstsAreBursty(t *testing.T) {
	const ticks = 400_000 // 4000 s, about 200 cycles
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 1998} {
		s := sim.New(seed)
		g := New(s, Config{Clients: 1, Arrival: "mmpp"}, 0, seed, 100, func() float64 { return 0 })
		g.Start(0)
		var n, arrivals [2]float64 // indexed by state: 0 calm, 1 burst
		cycles := 0
		bursting := false
		last := uint64(0)
		for k := 1; k <= ticks; k++ {
			s.RunUntil((float64(k) + 0.5) * tickS)
			st := 0
			if g.inBurst {
				st = 1
				if !bursting {
					cycles++
				}
			}
			bursting = g.inBurst
			n[st]++
			arrivals[st] += float64(g.queries - last)
			last = g.queries
		}
		if cycles < 50 || arrivals[0] == 0 || arrivals[1] == 0 {
			t.Fatalf("seed %d: %d cycles, arrivals %v: too little to measure", seed, cycles, arrivals)
		}
		frac := n[1] / ticks
		if tol := 4 * burstFrac * (1 - burstFrac) * math.Sqrt(2/float64(cycles)); math.Abs(frac-burstFrac) > tol {
			t.Errorf("seed %d: burst time fraction %.4f, want %v ± %.4f (%d cycles)", seed, frac, burstFrac, tol, cycles)
		}
		ratio := (arrivals[1] / n[1]) / (arrivals[0] / n[0])
		if tol := 4 * burstFactor * math.Sqrt(1/arrivals[0]+1/arrivals[1]); math.Abs(ratio-burstFactor) > tol {
			t.Errorf("seed %d: burst/calm rate per tick %.3f, want %v ± %.3f", seed, ratio, burstFactor, tol)
		}
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
	if g.queries == 0 {
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
		total += g.queries
	}
	if st.Queries != total || st.Nodes != 3 || st.Clients != 300 {
		t.Errorf("collect mismatch: %+v vs total %d", st, total)
	}
	if want := float64(total) / 5; st.QPS != want {
		t.Errorf("QPS = %g, want %g", st.QPS, want)
	}
}
