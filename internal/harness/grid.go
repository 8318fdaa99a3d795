// Grid construction: the standard sweep axes of the evaluation
// (cluster size, round period, background load, oscillator frequency,
// fault-tolerance degree, GPS fault scenarios) and a cartesian-product
// combinator. cmd/nticampaign's sweep-<axis> presets expose single
// axes; its other presets cross them into full matrices.

package harness

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/discipline"
	"ntisim/internal/gps"
	"ntisim/internal/service"
	"ntisim/internal/timefmt"
)

// Axis is a named list of points along one parameter.
type Axis struct {
	Name   string
	Points []Point
}

// NodesAxis sweeps cluster size (defaults: the paper-era 2..32 range).
func NodesAxis(ns ...int) Axis {
	if len(ns) == 0 {
		ns = []int{2, 4, 8, 16, 24, 32}
	}
	ax := Axis{Name: "nodes"}
	for _, n := range ns {
		n := n
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("n=%d", n),
			Params: map[string]string{"nodes": fmt.Sprint(n)},
			Mutate: func(c *cluster.Config) { c.Nodes = n },
		})
	}
	return ax
}

// SegmentsAxis sweeps the WANs-of-LANs segment count of the sharded
// topology (1 = single LAN). The worker count (cluster.Config.Shards)
// is deliberately not a point parameter: it cannot change results —
// that's the sharded kernel's determinism contract — so it is set on
// the Spec's base config, like Spec.Workers. Its zero value runs each
// cell's segments sequentially, leaving the cores to the cell pool.
func SegmentsAxis(segs ...int) Axis {
	if len(segs) == 0 {
		segs = []int{1, 2, 4, 8}
	}
	ax := Axis{Name: "segments"}
	for _, s := range segs {
		s := s
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("seg=%d", s),
			Params: map[string]string{"segments": fmt.Sprint(s)},
			Mutate: func(c *cluster.Config) { c.Segments = s },
		})
	}
	return ax
}

// PeriodAxis sweeps the resynchronization round period in seconds (the
// convergence compute delay Δ = P/4 scales with it).
func PeriodAxis(ps ...float64) Axis {
	if len(ps) == 0 {
		ps = []float64{0.25, 0.5, 1, 2, 4}
	}
	ax := Axis{Name: "period"}
	for _, p := range ps {
		p := p
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("P=%.2gs", p),
			Params: map[string]string{"period_s": fmt.Sprint(p)},
			Mutate: func(c *cluster.Config) {
				c.Sync.RoundPeriod = timefmt.DurationFromSeconds(p)
			},
		})
	}
	return ax
}

// LoadAxis sweeps background medium utilization (0..0.9).
func LoadAxis(ls ...float64) Axis {
	if len(ls) == 0 {
		ls = []float64{0, 0.15, 0.3, 0.45, 0.6}
	}
	ax := Axis{Name: "load"}
	for _, l := range ls {
		l := l
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("load=%.0f%%", l*100),
			Params: map[string]string{"load": fmt.Sprint(l)},
			Mutate: func(c *cluster.Config) { c.BackgroundLoad = l },
		})
	}
	return ax
}

// FoscAxis sweeps the UTCSU pacing frequency (the paper's 1..20 MHz).
func FoscAxis(fs ...float64) Axis {
	if len(fs) == 0 {
		fs = []float64{1e6, 4e6, 10e6, 14e6, 20e6}
	}
	ax := Axis{Name: "fosc"}
	for _, f := range fs {
		f := f
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("f=%.0fMHz", f/1e6),
			Params: map[string]string{"fosc_hz": fmt.Sprint(f)},
			Mutate: func(c *cluster.Config) { c.OscHz = f },
		})
	}
	return ax
}

// FAxis sweeps the fault-tolerance degree on a fixed-size cluster.
func FAxis(nodes int, fs ...int) Axis {
	if nodes <= 0 {
		nodes = 10
	}
	if len(fs) == 0 {
		fs = []int{0, 1, 2, 3, 4}
	}
	ax := Axis{Name: "f"}
	for _, fv := range fs {
		fv := fv
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("F=%d", fv),
			Params: map[string]string{"nodes": fmt.Sprint(nodes), "f": fmt.Sprint(fv)},
			Mutate: func(c *cluster.Config) {
				c.Nodes = nodes
				c.Sync.F = fv
			},
		})
	}
	return ax
}

// DisciplineAxis sweeps the clock-discipline algorithm (default: every
// registered discipline, in discipline.Names order). It panics on a
// name outside the registry — front-ends validate user input first
// (see cmd/nticampaign's valid-choices error).
func DisciplineAxis(names ...string) Axis {
	if len(names) == 0 {
		names = discipline.Names()
	}
	ax := Axis{Name: "discipline"}
	for _, n := range names {
		f, ok := discipline.Lookup(n)
		if !ok {
			panic(fmt.Sprintf("harness: unknown discipline %q", n))
		}
		n := n
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("disc=%s", n),
			Params: map[string]string{"discipline": n},
			Mutate: func(c *cluster.Config) { c.Sync.Discipline = f },
		})
	}
	return ax
}

// TraitorsAxis sweeps the Byzantine traitor fraction (the share of
// regular nodes running an adversarial behavior model; which nodes turn
// traitor derives from the cell seed — see internal/adversary). A 0
// point is the honest baseline within the same sweep.
func TraitorsAxis(fracs ...float64) Axis {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.125, 0.25, 0.375}
	}
	ax := Axis{Name: "traitors"}
	for _, fr := range fracs {
		fr := fr
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("traitors=%g", fr),
			Params: map[string]string{"traitors": fmt.Sprint(fr)},
			Mutate: func(c *cluster.Config) { c.Adversary.TraitorFrac = fr },
		})
	}
	return ax
}

// ClientsAxis sweeps the simulated client population querying the
// cluster for time (enables the internal/service load subsystem).
func ClientsAxis(ns ...int) Axis {
	if len(ns) == 0 {
		ns = []int{100000, 1000000}
	}
	ax := Axis{Name: "clients"}
	for _, n := range ns {
		n := n
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("clients=%d", n),
			Params: map[string]string{"clients": fmt.Sprint(n)},
			Mutate: func(c *cluster.Config) { c.Serving.Clients = n },
		})
	}
	return ax
}

// ArrivalAxis sweeps the client arrival process (default: every
// registered process, in service.Arrivals order). Like DisciplineAxis
// it panics on an unknown name — front-ends validate user input first.
func ArrivalAxis(names ...string) Axis {
	if len(names) == 0 {
		names = service.Arrivals()
	}
	ax := Axis{Name: "arrival"}
	for _, n := range names {
		if !service.ValidArrival(n) {
			panic(fmt.Sprintf("harness: unknown arrival process %q", n))
		}
		n := n
		ax.Points = append(ax.Points, Point{
			Label:  fmt.Sprintf("arrival=%s", n),
			Params: map[string]string{"arrival": n},
			Mutate: func(c *cluster.Config) { c.Serving.Arrival = n },
		})
	}
	return ax
}

// StandardFaults is the fault matrix of the fault studies: every
// injectable receiver fault kind, with FaultNone as the healthy control,
// in stable order, each starting at startS and run under every listed
// policy (trust = naive trust). Magnitudes are per kind, in the kind's
// own unit (gps.Fault.Magnitude): a 20 ms offset step, an off-by-one
// second label, ±20 ms flapping garbage and a 20 ms/s ramp.
func StandardFaults(startS float64, trust ...bool) []FaultScenario {
	kinds := []struct {
		kind gps.FaultKind
		mag  float64
	}{
		{gps.FaultNone, 20e-3}, {gps.FaultOutage, 20e-3}, {gps.FaultOffset, 20e-3},
		{gps.FaultWrongSec, 1}, {gps.FaultFlapping, 20e-3}, {gps.FaultRampDrift, 20e-3},
	}
	var out []FaultScenario
	for _, k := range kinds {
		for _, tr := range trust {
			out = append(out, FaultScenario{Kind: k.kind, Magnitude: k.mag, StartS: startS, Trust: tr})
		}
	}
	return out
}

// FaultScenario describes one GPS fault-injection cell.
type FaultScenario struct {
	Kind      gps.FaultKind
	Magnitude float64 // unit depends on Kind (s, s/s, or whole seconds)
	StartS    float64 // fault onset in sim seconds
	// Trust bypasses interval-based clock validation (the naive-trust
	// contrast).
	Trust bool
}

// FaultAxis builds fault-injection points: gpsNodes receivers on the
// first nodes, with the last GPS node carrying the scenario's fault.
func FaultAxis(gpsNodes int, scenarios ...FaultScenario) Axis {
	ax := Axis{Name: "fault"}
	for _, sc := range scenarios {
		sc := sc
		label := fmt.Sprintf("fault=%s", sc.Kind)
		policy := "validated"
		if sc.Trust {
			policy = "naive-trust"
		}
		label += "/" + policy
		ax.Points = append(ax.Points, Point{
			Label: label,
			Params: map[string]string{
				"fault":  sc.Kind.String(),
				"mag":    fmt.Sprint(sc.Magnitude),
				"onset":  fmt.Sprint(sc.StartS),
				"policy": policy,
			},
			Mutate: func(c *cluster.Config) {
				c.Sync.TrustExternal = sc.Trust
				c.GPS = make(map[int]gps.Config, gpsNodes)
				for i := 0; i < gpsNodes; i++ {
					c.GPS[i] = gps.DefaultReceiver()
				}
				if sc.Kind != gps.FaultNone {
					rc := gps.DefaultReceiver()
					rc.Faults = []gps.Fault{{Kind: sc.Kind, Start: sc.StartS, Magnitude: sc.Magnitude}}
					c.GPS[gpsNodes-1] = rc
				}
			},
		})
	}
	return ax
}

// Cross returns the cartesian product of the axes' points: labels
// joined with ",", params merged (later axes win on key collisions),
// mutations applied left-to-right.
func Cross(axes ...Axis) []Point {
	pts := []Point{{}}
	for _, ax := range axes {
		var next []Point
		for _, base := range pts {
			for _, p := range ax.Points {
				next = append(next, combine(base, p))
			}
		}
		pts = next
	}
	// Strip the empty seed point artifacts when no axes were given.
	if len(axes) == 0 {
		return nil
	}
	return pts
}

func combine(a, b Point) Point {
	out := Point{Label: b.Label}
	if a.Label != "" {
		out.Label = a.Label + "," + b.Label
	}
	out.Params = map[string]string{}
	for k, v := range a.Params {
		out.Params[k] = v
	}
	for k, v := range b.Params {
		out.Params[k] = v
	}
	am, bm := a.Mutate, b.Mutate
	out.Mutate = func(c *cluster.Config) {
		if am != nil {
			am(c)
		}
		if bm != nil {
			bm(c)
		}
	}
	return out
}
