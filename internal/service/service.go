// Package service models the time-service client population: open-loop
// arrival processes generating 10⁵–10⁷ simulated time-query clients
// against the synchronized cluster nodes. Clients are never modeled
// individually — like the network's background-load frames, each
// serving node carries one aggregate arrival stream, advanced in fixed
// ticks: every tick draws the number of arrivals from the configured
// process, samples the node's clock error once, and feeds the batch
// into a streaming quantile sketch. The steady-state path allocates
// nothing, so populations in the millions cost the same per tick as
// populations in the thousands, and the harness can report
// served-accuracy percentiles (what error does the p99 client actually
// get?) as byte-deterministic campaign metrics.
package service

import (
	"fmt"
	"sort"
	"strings"

	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// ClientQPS is the mean query rate per client in queries per
// sim-second: each client asks for time every ~10 s.
const ClientQPS = 0.1

// tickS is the aggregation granularity of the arrival stream in
// sim-seconds. Smaller ticks would track error dynamics more finely at
// proportionally more events.
const tickS = 0.01

// Shape of the mmpp arrival process: a burst draws burstFactor times the
// calm rate, the chain spends burstFrac of the time bursting, and one
// burst lasts burstDwellS sim-seconds on average (calm dwells follow
// from burstFrac).
const (
	burstFactor = 8
	burstFrac   = 0.1
	burstDwellS = 2
)

// Config describes a client population. The zero value disables serving
// (Clients == 0); the other fields default sensibly when zero, so
// enabling a million-client load is just Serving.Clients = 1e6. Config
// is a pure value type — copying a cluster config copies it fully.
type Config struct {
	// Clients is the simulated client population size. 0 disables the
	// load subsystem entirely (no events, no RNG streams, no metrics).
	Clients int
	// Arrival names the arrival process: "poisson" (default) for a
	// homogeneous open-loop stream, or "mmpp" for a two-state
	// Markov-modulated Poisson process with calm/burst phases whose
	// time-averaged rate still equals Clients × ClientQPS.
	Arrival string
	// RegionalSkew shapes how the population is spread across network
	// segments: segment s receives weight RegionalSkew^s before
	// normalization. 1 (or 0, the default) is uniform; 1.5 on four
	// segments sends the last segment ~3.4× the first's traffic.
	RegionalSkew float64
}

// withDefaults returns cfg with zero-valued tunables replaced by the
// package defaults. Clients is left as-is: zero means disabled.
func (c Config) withDefaults() Config {
	if c.Arrival == "" {
		c.Arrival = "poisson"
	}
	if c.RegionalSkew == 0 {
		c.RegionalSkew = 1
	}
	return c
}

// arrivalNames is the closed set of arrival-process names. Kept as an
// explicit slice (sorted) so front-ends can list valid choices in
// errors without reflection.
var arrivalNames = []string{"mmpp", "poisson"}

// Arrivals returns the valid arrival-process names in sorted order.
func Arrivals() []string {
	out := make([]string, len(arrivalNames))
	copy(out, arrivalNames)
	return out
}

// ValidArrival reports whether name is a known arrival process.
func ValidArrival(name string) bool {
	i := sort.SearchStrings(arrivalNames, name)
	return i < len(arrivalNames) && arrivalNames[i] == name
}

// mustArrival validates an arrival name, panicking with the valid
// choices on error (front-ends validate user input first; reaching this
// panic means a programming error in preset or axis construction).
func mustArrival(name string) string {
	if !ValidArrival(name) {
		panic(fmt.Sprintf("service: unknown arrival process %q (choices: %s)",
			name, strings.Join(arrivalNames, ", ")))
	}
	return name
}

// Generator is one node's aggregate arrival stream. It owns a private
// RNG derived from the scenario seed and the node index — never from
// the node's shard — so the stream of arrival counts is a pure function
// of (seed, node) and identical at any shard or worker count.
type Generator struct {
	s      *sim.Simulator
	rng    *sim.RNG
	sk     *Sketch
	sample func() float64
	tr     *trace.Tracer
	node   int

	// Mean arrivals per tick in each mmpp state; for plain poisson,
	// calm carries the homogeneous rate and mmpp is false.
	calm, burst             float64
	dwellCalmS, dwellBurstS float64
	mmpp                    bool
	inBurst                 bool
	nextFlip                float64

	queries uint64

	tmQueries *telemetry.Counter
	tmBurst   *telemetry.Histogram
}

// New builds a generator serving qps mean queries per sim-second on s.
// sample must return the node's current absolute clock error in seconds
// without allocating (it runs once per tick). The generator observes
// through s: query-served records for node `node` on its tracer, and a
// served-query counter plus the per-tick arrival burst-size histogram on
// its registry.
func New(s *sim.Simulator, cfg Config, node int, seed uint64, qps float64, sample func() float64) *Generator {
	cfg = cfg.withDefaults()
	mustArrival(cfg.Arrival)
	g := &Generator{
		s:         s,
		rng:       sim.NewRNG(seed),
		sk:        NewSketch(),
		sample:    sample,
		tr:        s.Tracer(),
		node:      node,
		tmQueries: s.Telemetry().Counter("svc.queries"),
		tmBurst:   s.Telemetry().Histogram("svc.tick_batch"),
	}
	perTick := qps * tickS
	switch cfg.Arrival {
	case "poisson":
		g.calm = perTick
	case "mmpp":
		g.mmpp = true
		// Solve the calm rate so the duty-cycle-weighted mean still
		// equals the nominal rate: (1−f)·λc + f·B·λc = λ. The shape is
		// held in float64 variables so this arithmetic rounds at run
		// time; a constant expression would fold at arbitrary precision
		// and could move the last bit of every rate and dwell, and with
		// it every mmpp draw.
		f, b, dwell := float64(burstFrac), float64(burstFactor), float64(burstDwellS)
		g.calm = perTick / (1 - f + f*b)
		g.burst = b * g.calm
		g.dwellBurstS = dwell
		g.dwellCalmS = dwell * (1 - f) / f
	}
	return g
}

// Start schedules the tick loop; the first tick fires one tick after at
// so it aggregates the (at, at+tickS] window.
func (g *Generator) Start(at float64) {
	if g.mmpp {
		g.inBurst = false
		g.nextFlip = at + g.rng.Exponential(g.dwellCalmS)
	}
	g.s.Every(at+tickS, tickS, g.step)
}

// step serves one tick's worth of queries: advance the modulating
// chain, draw the arrival count, sample the node error once, and batch
// the whole tick into the sketch. Zero allocations in steady state.
func (g *Generator) step() {
	now := g.s.Now()
	lam := g.calm
	if g.mmpp {
		for now >= g.nextFlip {
			g.inBurst = !g.inBurst
			d := g.dwellCalmS
			if g.inBurst {
				d = g.dwellBurstS
			}
			g.nextFlip += g.rng.Exponential(d)
		}
		if g.inBurst {
			lam = g.burst
		}
	}
	n := g.rng.Poisson(lam)
	if n == 0 {
		return
	}
	err := g.sample()
	if err < 0 {
		err = -err
	}
	g.sk.AddN(err, n)
	g.queries += n
	g.tmQueries.Add(n)
	g.tmBurst.Observe(float64(n))
	if g.tr != nil {
		g.tr.Emit(trace.KindQueryServed, now, g.node, 0, n, 0, err)
	}
}

// Stats summarizes the served-query population over a measurement
// window. All error figures are in seconds of absolute clock error as
// observed by the clients served in the window.
type Stats struct {
	// Clients is the configured population size.
	Clients int `json:"clients"`
	// Nodes is the number of serving nodes (gateways excluded).
	Nodes int `json:"nodes"`
	// Queries is the total number of queries served in the window.
	Queries uint64 `json:"queries"`
	// WindowS is the measurement window length in sim-seconds.
	WindowS float64 `json:"window_s"`
	// QPS is Queries/WindowS: served requests per sim-second.
	QPS float64 `json:"qps"`
	// ErrMeanS is the mean error across all served queries.
	ErrMeanS float64 `json:"err_mean_s"`
	// ErrP50S, ErrP99S, ErrP999S are the served-error percentiles: the
	// error the median, p99 and p99.9 client actually received.
	ErrP50S  float64 `json:"err_p50_s"`
	ErrP99S  float64 `json:"err_p99_s"`
	ErrP999S float64 `json:"err_p999_s"`
	// ErrMaxS is the exact worst error any client received.
	ErrMaxS float64 `json:"err_max_s"`
}

// Collect merges the per-node generators into population-level stats
// for a window of windowS sim-seconds. The percentiles and max do not
// depend on merge order (bin counts add exactly); ErrMeanS comes from
// the float sum, which is byte-stable because gens is merged in its
// given order, the cluster's member order, whatever the shard layout.
func Collect(gens []*Generator, clients int, windowS float64) Stats {
	st := Stats{Clients: clients, Nodes: len(gens), WindowS: windowS}
	merged := NewSketch()
	for _, g := range gens {
		merged.Merge(g.sk)
		st.Queries += g.queries
	}
	if windowS > 0 {
		st.QPS = float64(st.Queries) / windowS
	}
	st.ErrMeanS = merged.Mean()
	st.ErrP50S = merged.Quantile(0.50)
	st.ErrP99S = merged.Quantile(0.99)
	st.ErrP999S = merged.Quantile(0.999)
	st.ErrMaxS = merged.Max()
	return st
}
