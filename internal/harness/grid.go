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

// Axis is the list of points along one parameter.
type Axis struct {
	Points []Point
}

// sweep builds a one-parameter axis: each value becomes a point
// labelled label(v), recorded as {key: fmt.Sprint(v)} and applied by
// set. No values selects defaults.
func sweep[T any](vals, defaults []T, key string, label func(T) string, set func(*cluster.Config, T)) Axis {
	if len(vals) == 0 {
		vals = defaults
	}
	var ax Axis
	for _, v := range vals {
		ax.Points = append(ax.Points, Point{
			Label:  label(v),
			Params: map[string]string{key: fmt.Sprint(v)},
			Mutate: func(c *cluster.Config) { set(c, v) },
		})
	}
	return ax
}

// NodesAxis sweeps cluster size (defaults: the paper-era 2..32 range).
func NodesAxis(ns ...int) Axis {
	return sweep(ns, []int{2, 4, 8, 16, 24, 32}, "nodes",
		func(n int) string { return fmt.Sprintf("n=%d", n) },
		func(c *cluster.Config, n int) { c.Nodes = n })
}

// SegmentsAxis sweeps the WANs-of-LANs segment count of the sharded
// topology (1 = single LAN). Each cell runs its segments in turn on
// its own goroutine, so a campaign's cores go to the cell pool
// (Spec.Workers).
func SegmentsAxis(segs ...int) Axis {
	return sweep(segs, []int{1, 2, 4, 8}, "segments",
		func(s int) string { return fmt.Sprintf("seg=%d", s) },
		func(c *cluster.Config, s int) { c.Segments = s })
}

// PeriodAxis sweeps the resynchronization round period in seconds (the
// convergence compute delay Δ = P/4 scales with it).
func PeriodAxis(ps ...float64) Axis {
	return sweep(ps, []float64{0.25, 0.5, 1, 2, 4}, "period_s",
		func(p float64) string { return fmt.Sprintf("P=%.2gs", p) },
		func(c *cluster.Config, p float64) { c.Sync.RoundPeriod = timefmt.DurationFromSeconds(p) })
}

// LoadAxis sweeps background medium utilization (0..0.9).
func LoadAxis(ls ...float64) Axis {
	return sweep(ls, []float64{0, 0.15, 0.3, 0.45, 0.6}, "load",
		func(l float64) string { return fmt.Sprintf("load=%.0f%%", l*100) },
		func(c *cluster.Config, l float64) { c.BackgroundLoad = l })
}

// FoscAxis sweeps the UTCSU pacing frequency (the paper's 1..20 MHz).
func FoscAxis(fs ...float64) Axis {
	return sweep(fs, []float64{1e6, 4e6, 10e6, 14e6, 20e6}, "fosc_hz",
		func(f float64) string { return fmt.Sprintf("f=%.0fMHz", f/1e6) },
		func(c *cluster.Config, f float64) { c.OscHz = f })
}

// FAxis sweeps the fault-tolerance degree on a fixed-size cluster.
func FAxis(nodes int, fs ...int) Axis {
	if nodes <= 0 {
		nodes = 10
	}
	if len(fs) == 0 {
		fs = []int{0, 1, 2, 3, 4}
	}
	var ax Axis
	for _, fv := range fs {
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
	var ax Axis
	for _, n := range names {
		f, ok := discipline.Lookup(n)
		if !ok {
			panic(fmt.Sprintf("harness: unknown discipline %q", n))
		}
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
	return sweep(fracs, []float64{0, 0.125, 0.25, 0.375}, "traitors",
		func(fr float64) string { return fmt.Sprintf("traitors=%g", fr) },
		func(c *cluster.Config, fr float64) { c.Adversary.TraitorFrac = fr })
}

// ClientsAxis sweeps the simulated client population querying the
// cluster for time (enables the internal/service load subsystem).
func ClientsAxis(ns ...int) Axis {
	return sweep(ns, []int{100000, 1000000}, "clients",
		func(n int) string { return fmt.Sprintf("clients=%d", n) },
		func(c *cluster.Config, n int) { c.Serving.Clients = n })
}

// ArrivalAxis sweeps the client arrival process (default: every
// registered process, in service.Arrivals order). Like DisciplineAxis
// it panics on an unknown name — front-ends validate user input first.
func ArrivalAxis(names ...string) Axis {
	if len(names) == 0 {
		names = service.Arrivals()
	}
	var ax Axis
	for _, n := range names {
		if !service.ValidArrival(n) {
			panic(fmt.Sprintf("harness: unknown arrival process %q", n))
		}
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
	var ax Axis
	for _, sc := range scenarios {
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
