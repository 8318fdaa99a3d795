// Command nticampaign runs experiment campaigns — EXPERIMENTS.md style
// matrices of cluster size × round period × background load, the
// complete GPS fault × policy grid, or one-axis design-space sweeps —
// through the internal/harness engine: every cell an independent
// deterministic simulation, fanned across all cores, with
// JSONL/CSV/manifest artifacts.
//
// Usage:
//
//	nticampaign -list                        # available presets
//	nticampaign -preset matrix -out artifacts/
//	nticampaign -preset sweep-nodes          # one axis: 2..32 nodes
//	nticampaign -preset faults -report faults.md  # fault × policy grid
//	                                         # with per-cell timelines
//	nticampaign -preset smoke -out artifacts/ -trace  # + per-cell traces
//	nticampaign -preset smoke -seeds 3 -report report.md
//	nticampaign -refine load=2e-6            # bisect load until mean
//	                                         # precision crosses 2 µs
//	nticampaign -preset smoke -telemetry -out artifacts/  # + runtime metric
//	                                         # snapshots and health flags
//	nticampaign -preset matrix -monitor :8080  # live status for cmd/ntitop
//
// Artifacts are byte-deterministic, so regression gating is a byte
// diff: main_test.go runs the gated presets and compares their
// artifacts with testdata/ (`go test ./cmd/nticampaign
// -run CampaignGoldens`, add -update after an intentional change).
// -seeds N runs every preset point under N consecutive seeds (derived
// from -seed) so reports can attach confidence intervals; -report
// renders the run through internal/report. -refine axis=target
// replaces the preset grid with adaptive bisection of one numeric axis
// (load|period|fosc|nodes) until the mean-precision crossover of
// target is bracketed to -refine-tol. A bracket end moves only when
// the bootstrap 95% CI across seeds clears the target; the run stops
// (noise-limited) when the seeds can't resolve it.
// A multi-segment cell runs its segments in turn on its own goroutine,
// so the cores go to the -workers cell pool.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"
	"strconv"
	"strings"

	"ntisim/internal/adversary"
	"ntisim/internal/cluster"
	"ntisim/internal/discipline"
	"ntisim/internal/gps"
	"ntisim/internal/harness"
	"ntisim/internal/metrics"
	"ntisim/internal/prof"
	"ntisim/internal/report"
	"ntisim/internal/service"
	"ntisim/internal/stats"
	"ntisim/internal/telemetry"
)

// preset bundles a grid with the sampling schedule that suits it.
type preset struct {
	desc   string
	points func() []harness.Point
	spec   func(*harness.Spec)
}

var presets = map[string]preset{
	"smoke": {
		desc:   "4-cell nodes×load grid with a short window (CI regression gate)",
		points: func() []harness.Point { return harness.Cross(harness.NodesAxis(2, 8), harness.LoadAxis(0, 0.3)) },
		spec: func(s *harness.Spec) {
			s.WarmupS = 10
			s.WindowS = 30
		},
	},
	"matrix": {
		desc: "nodes × period × load matrix (36 points/seed)",
		points: func() []harness.Point {
			return harness.Cross(
				harness.NodesAxis(2, 4, 8, 16),
				harness.PeriodAxis(0.5, 1, 2),
				harness.LoadAxis(0, 0.3, 0.6),
			)
		},
	},
	"faults": {
		desc: "every GPS fault kind under validated and naive-trust policies, with per-sample timelines",
		points: func() []harness.Point {
			return harness.FaultAxis(3, harness.StandardFaults(60, false, true)...).Points
		},
		spec: func(s *harness.Spec) {
			s.DelayProbes = 16
			s.WindowS = 180
			s.SampleEveryS = 5
			// Timelines show fault onset and recovery: -report renders
			// precision and cumulative rejections over time per cell.
			s.Timeline = true
		},
	},
	"scaling": {
		desc: "cluster size × oscillator frequency (throughput/impairment study)",
		points: func() []harness.Point {
			return harness.Cross(harness.NodesAxis(2, 8, 16, 32), harness.FoscAxis(1e6, 10e6, 20e6))
		},
	},
	"sharded": {
		desc: "WANs-of-LANs segments × nodes grid on the segment-sharded kernel (one simulator per segment)",
		points: func() []harness.Point {
			return harness.Cross(harness.SegmentsAxis(1, 2, 4), harness.NodesAxis(8, 16))
		},
		spec: func(s *harness.Spec) {
			// F=1 keeps gateways per WAN link at F+1 = 2; seg=1 cells run
			// the classic single-kernel path next to the sharded ones.
			s.Base.Sync.F = 1
			s.WarmupS = 10
			s.WindowS = 30
		},
	},
	"serving": {
		desc: "client-population load: clients × arrival process serving a 4-segment sharded topology (served-accuracy percentiles)",
		points: func() []harness.Point {
			return harness.Cross(
				harness.ClientsAxis(100000, 1000000),
				harness.ArrivalAxis(),
			)
		},
		spec: func(s *harness.Spec) {
			s.Base.Nodes = 16
			s.Base.Segments = 4
			// F=1 keeps gateways per WAN link at F+1 = 2.
			s.Base.Sync.F = 1
			s.Base.Serving.RegionalSkew = 1.5
			s.WarmupS = 10
			s.WindowS = 30
		},
	},
	"byzantine": {
		desc: "Byzantine traitor tolerance: discipline × nodes × traitor fraction on a 2-segment topology with colluding liars, triple GNSS sources and a wide-area spoof window",
		points: func() []harness.Point {
			pts := harness.Cross(
				harness.DisciplineAxis(),
				harness.NodesAxis(8, 16),
				harness.TraitorsAxis(0, 0.125, 0.25, 0.375),
			)
			// NodesAxis does not rescale Sync.F; the tolerance question
			// is exactly how F-vs-clique-size plays out at each scale, so
			// recompute the proportional default per cell.
			wrapPoints(pts, nil, func(c *cluster.Config) { c.Sync.F = cluster.DefaultF(c.Nodes) })
			return pts
		},
		spec: func(s *harness.Spec) {
			s.Base.Segments = 2
			// Fixed gateway redundancy (instead of the F+1 default) so
			// the n=16 cells don't spend 6 gateways per link.
			s.Base.GatewaysPerLink = 3
			// Nodes 0 and 1 (both on segment 0, the MeasureDelay pair)
			// carry GNSS; each holds 3 independent sources combined with
			// SourceF=1 fault tolerance, and the wide-area spoof window
			// captures source 0 of every receiver mid-window.
			s.Base.GPS = map[int]gps.Config{0: gps.DefaultReceiver(), 1: gps.DefaultReceiver()}
			s.Base.Sync.SourceF = 1
			s.Base.Adversary = adversary.Spec{
				Attack: adversary.AttackCollude,
				// In the capture band: wider than a typical steady-state
				// interval half-width (~330 µs) so a clique larger than F
				// drags fused intervals off true time, but narrow enough
				// that intersection still succeeds (a louder lie merely
				// kills convergence, which containment survives).
				MagnitudeS: 500e-6,
				Sources:    3,
				GNSS: []adversary.GNSSEvent{{
					Kind: adversary.GNSSSpoof, StartS: 25, EndS: 35,
					OffsetS: 20e-3, Sources: 1,
				}},
			}
			s.Watchdog.PrecisionDriftWindow = 8
			s.WarmupS = 10
			s.WindowS = 30
		},
	},
	"disciplines": {
		desc: "clock-discipline shootout: every discipline × (ensemble-only + the GPS fault matrix)",
		points: func() []harness.Point {
			fault := harness.FaultAxis(3, harness.StandardFaults(40, false)...)
			// Ensemble-only cell first: with no UTC anchor, interval
			// validation cannot override the reference point, so the
			// filter dynamics alone set the achievable precision. In the
			// GPS cells validation dominates the reference — there the
			// matrix measures fault robustness, not filter quality.
			fault.Points = append([]harness.Point{{
				Label:  "fault=ensemble",
				Params: map[string]string{"fault": "ensemble", "policy": "internal"},
			}}, fault.Points...)
			return harness.Cross(harness.DisciplineAxis(), fault)
		},
		spec: func(s *harness.Spec) {
			s.DelayProbes = 16
			// Short warmup + timelines: the ranking report needs the
			// convergence transient inside the measurement window.
			s.WarmupS = 4
			s.WindowS = 90
			s.SampleEveryS = 1
			s.Timeline = true
		},
	},

	// One-axis design-space sweeps: the paper's 8-node prototype
	// configuration with a single parameter varied.
	"sweep-nodes": {
		desc:   "one-axis sweep: cluster size 2..32",
		points: func() []harness.Point { return harness.NodesAxis().Points },
	},
	"sweep-period": {
		desc:   "one-axis sweep: round period 0.25..4 s",
		points: func() []harness.Point { return harness.PeriodAxis().Points },
	},
	"sweep-load": {
		desc:   "one-axis sweep: background medium load 0..60%",
		points: func() []harness.Point { return harness.LoadAxis().Points },
	},
	"sweep-fosc": {
		desc:   "one-axis sweep: UTCSU oscillator frequency 1..20 MHz",
		points: func() []harness.Point { return harness.FoscAxis().Points },
	},
	"sweep-f": {
		desc:   "one-axis sweep: fault-tolerance degree F 0..4 on 10 nodes",
		points: func() []harness.Point { return harness.FAxis(10).Points },
	},
	"sweep-discipline": {
		desc:   "one-axis sweep: every clock discipline",
		points: func() []harness.Point { return harness.DisciplineAxis().Points },
	},
	"sweep-clients": {
		desc:   "one-axis sweep: client population 1e4..1e6 on the flat LAN",
		points: func() []harness.Point { return harness.ClientsAxis(10000, 100000, 1000000).Points },
	},
	"sweep-arrival": {
		desc: "one-axis sweep: every client arrival process at 1e5 clients",
		points: func() []harness.Point {
			return harness.Cross(harness.ClientsAxis(100000), harness.ArrivalAxis())
		},
	},
}

func presetChoices() string {
	var names []string
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

func disciplineChoices() string {
	return strings.Join(discipline.Names(), "|")
}

func arrivalChoices() string {
	return strings.Join(service.Arrivals(), "|")
}

func refineChoices() string {
	var names []string
	for n := range stats.StandardNumericAxes() {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// runRefine executes adaptive bisection of one numeric axis until the
// mean-precision crossover of target is bracketed, printing every
// evaluation with its bootstrap 95% CI across seeds and the final
// bracket to w. A bracket end only moves when an evaluation's whole CI
// clears the target, so a straddling CI stops the run as noise-limited
// (with one seed the CI is the point itself). It reports whether the
// crossover was bracketed with no errored evaluation; a malformed arg
// is an error.
func runRefine(w io.Writer, spec harness.Spec, arg string, tol float64) (bool, error) {
	name, targetStr, ok := strings.Cut(arg, "=")
	if !ok {
		return false, fmt.Errorf("-refine wants axis=target (e.g. load=2e-6), got %q", arg)
	}
	ax, axOK := stats.StandardNumericAxes()[name]
	if !axOK {
		return false, fmt.Errorf("unknown refine axis %q (choices: %s)", name, refineChoices())
	}
	target, err := strconv.ParseFloat(targetStr, 64)
	if err != nil {
		return false, fmt.Errorf("bad refine target %q: %v", targetStr, err)
	}
	if tol <= 0 {
		tol = (ax.Hi - ax.Lo) / 64
	}

	r := stats.Refine(spec, ax, target, tol)
	tb := metrics.Table{Header: []string{name, "mean prec [µs]", "95% CI [µs]", "cells"}}
	for _, e := range r.Evals {
		tb.AddRow(fmt.Sprintf("%g", e.Value), metrics.Us(e.Metric),
			fmt.Sprintf("[%s, %s]", metrics.Us(e.CILo), metrics.Us(e.CIHi)),
			fmt.Sprint(len(e.Results)))
	}
	tb.Fprint(w)
	if e, failed := r.Errored(); failed {
		fmt.Fprintf(w, "\nstopped: every cell at %s=%g errored, so it has no metric", name, e.Value)
		if len(e.Results) > 0 {
			fmt.Fprintf(w, " (%s: %s)", e.Results[0].Key(), e.Results[0].Err)
		}
		fmt.Fprintln(w)
		return false, nil
	}
	if !r.Bracketed {
		fmt.Fprintf(w, "\nno crossover of %sµs inside %s ∈ [%g, %g] (metric %s..%sµs)\n",
			metrics.Us(target), name, ax.Lo, ax.Hi, metrics.Us(r.Lo.Metric), metrics.Us(r.Hi.Metric))
		if r.NoiseLimited {
			fmt.Fprintf(w, "noise-limited: a range end's 95%% CI straddles the target — add seeds (-seeds) to resolve\n")
		}
		return false, nil
	}
	fmt.Fprintf(w, "\ncrossover of %sµs bracketed: %s ∈ [%g, %g] (width %g, tol %g), metric %sµs → %sµs, %d evaluations\n",
		metrics.Us(target), name, r.Lo.Value, r.Hi.Value, r.Hi.Value-r.Lo.Value, tol,
		metrics.Us(r.Lo.Metric), metrics.Us(r.Hi.Metric), len(r.Evals))
	if r.NoiseLimited {
		fmt.Fprintf(w, "noise-limited: stopped before tol — a midpoint's 95%% CI straddles the target; add seeds (-seeds) to refine further\n")
	}
	return true, nil
}

// writeReport renders the campaign's Markdown+SVG report into path.
func writeReport(path, title string, results []harness.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Generate(f, title, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its
// exit status: 0 on success (and for -h), 1 on a runtime failure
// (failed cells, an unbracketed or malformed -refine, an I/O error), 2
// on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nticampaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		presetName  = fs.String("preset", "smoke", "campaign preset: "+presetChoices())
		list        = fs.Bool("list", false, "list presets and exit")
		seed        = fs.Uint64("seed", 1998, "base random seed")
		seedCount   = fs.Int("seeds", 1, "number of consecutive seeds per point")
		window      = fs.Float64("window", 0, "override measurement window [sim s]")
		workers     = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		outDir      = fs.String("out", "", "write JSONL/CSV/manifest artifacts into this directory")
		reportPath  = fs.String("report", "", "write a Markdown+SVG report of this run to this file")
		traceCells  = fs.Bool("trace", false, "capture a cross-layer trace per cell (requires -out; adds one .cell-NNN.trace.jsonl per cell)")
		discName    = fs.String("discipline", "", "force one clock discipline for every cell: "+disciplineChoices())
		clients     = fs.Int("clients", 0, "force a simulated client population of this size on every cell (enables serving metrics)")
		arrival     = fs.String("arrival", "", "force one client arrival process for every cell: "+arrivalChoices()+" (use with -clients or the serving preset)")
		refine      = fs.String("refine", "", "adaptive refinement instead of the preset grid: axis=target, e.g. load=2e-6 (axes: "+refineChoices()+")")
		refineTol   = fs.Float64("refine-tol", 0, "axis tolerance for -refine (default: range/64)")
		telem       = fs.Bool("telemetry", false, "capture runtime telemetry per cell: per-tick metric snapshots (with -out: one combined .telemetry.jsonl) plus watchdog health flags in artifacts and reports")
		monitorAddr = fs.String("monitor", "", "serve live campaign status on this host:port (/campaign.json for ntitop, /metrics for Prometheus scrapers); implies -telemetry")
		quiet       = fs.Bool("q", false, "suppress per-cell progress on stderr")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nticampaign: "+format+"\n", a...)
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nticampaign: "+format+"\n", a...)
		return 1
	}

	if *list {
		var names []string
		width := 0
		for n := range presets {
			names = append(names, n)
			width = max(width, len(n))
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "%-*s %s\n", width, n, presets[n].desc)
		}
		return 0
	}
	p, ok := presets[*presetName]
	if !ok {
		return usage("unknown preset %q (choices: %s)", *presetName, presetChoices())
	}
	if *seedCount < 1 {
		return usage("-seeds must be >= 1")
	}
	switch { // !(x >= 0) also rejects NaN
	case !(*window >= 0):
		return usage("-window must be >= 0")
	case !(*refineTol >= 0):
		return usage("-refine-tol must be >= 0")
	}

	seeds := make([]uint64, *seedCount)
	for i := range seeds {
		seeds[i] = *seed + uint64(i)
	}
	spec := harness.Spec{
		Name:    "campaign-" + *presetName,
		Base:    cluster.Defaults(8, *seed),
		Points:  p.points(),
		Seeds:   seeds,
		Workers: *workers,
	}
	if p.spec != nil {
		p.spec(&spec)
	}
	if *window > 0 {
		spec.WindowS = *window
	}
	if *traceCells {
		if *outDir == "" {
			return fail("-trace needs -out (traces are written as per-cell artifacts)")
		}
		spec.Trace = true
	}
	if *discName != "" {
		f, ok := discipline.Lookup(*discName)
		if !ok {
			return usage("unknown discipline %q (choices: %s)", *discName, disciplineChoices())
		}
		// Force the discipline after every point mutation so it wins
		// even over a preset's own discipline axis.
		wrapPoints(spec.Points, map[string]string{"discipline": *discName}, func(c *cluster.Config) { c.Sync.Discipline = f })
	}
	if *arrival != "" && !service.ValidArrival(*arrival) {
		return usage("unknown arrival process %q (choices: %s)", *arrival, arrivalChoices())
	}
	if *clients < 0 {
		return usage("-clients must be >= 0")
	}
	if *clients > 0 || *arrival != "" {
		// Force the population after every point mutation, like
		// -discipline; a bare -arrival keeps the preset's population (or
		// stays inert on presets without one).
		params := map[string]string{}
		if *clients > 0 {
			params["clients"] = fmt.Sprint(*clients)
		}
		if *arrival != "" {
			params["arrival"] = *arrival
		}
		wrapPoints(spec.Points, params, func(c *cluster.Config) {
			if *clients > 0 {
				c.Serving.Clients = *clients
			}
			if *arrival != "" {
				c.Serving.Arrival = *arrival
			}
		})
	}
	if !*quiet {
		spec.Progress = stderr
	}
	if *telem || *monitorAddr != "" {
		spec.Telemetry = true
	}
	if *monitorAddr != "" {
		mon := telemetry.NewMonitor()
		addr, err := mon.Serve(*monitorAddr)
		if err != nil {
			return fail("monitor: %v", err)
		}
		defer mon.Close()
		fmt.Fprintf(stderr, "nticampaign: monitor on http://%s/ (campaign.json, metrics)\n", addr)
		spec.Monitor = mon
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail("%v", err)
	}

	if *refine != "" {
		bracketed, err := runRefine(stdout, spec, *refine, *refineTol)
		if perr := stopProf(); err == nil {
			err = perr
		}
		if err != nil {
			return fail("%v", err)
		}
		if !bracketed {
			return 1
		}
		return 0
	}

	camp := harness.Run(spec)

	if err := stopProf(); err != nil {
		return fail("%v", err)
	}

	// Rows grouped by point (all seeds of a point adjacent), the same
	// ordering reports aggregate over. External-reference columns appear
	// only when some cell had GPS fixes to accept or reject, serving
	// columns only when some cell carried a client population.
	hasExternal, hasServing := false, false
	for i := range camp.Results {
		r := &camp.Results[i]
		hasExternal = hasExternal || r.Sync.ExternalAccepted+r.Sync.ExternalRejected > 0
		hasServing = hasServing || r.Serving != nil
	}
	header := []string{"cell", "seed", "mean prec [µs]", "worst prec [µs]", "worst |C-t| [µs]", "width ±[µs]", "CSP use", "contained"}
	if hasExternal {
		header = append(header, "ext acc/rej")
	}
	if hasServing {
		header = append(header, "req/s", "p99 err [µs]")
	}
	tb := metrics.Table{Header: header}
	for _, g := range harness.GroupByPoint(camp.Results) {
		for _, r := range g.Results {
			row := []string{r.Label, fmt.Sprint(r.Seed), "error", r.Err, "", "", "", ""}
			if r.Err == "" {
				row = []string{r.Label, fmt.Sprint(r.Seed),
					metrics.Us(r.Precision.Mean), metrics.Us(r.Precision.Max),
					metrics.Us(r.Accuracy.Max), metrics.Us(r.Width.Mean),
					fmt.Sprintf("%.1f%%", 100*r.CSPUse),
					fmt.Sprintf("%d/%d", r.Samples-r.ContainmentViolations, r.Samples)}
			}
			if hasExternal {
				row = append(row, fmt.Sprintf("%d/%d", r.Sync.ExternalAccepted, r.Sync.ExternalRejected))
			}
			if hasServing {
				if sv := r.Serving; sv != nil {
					row = append(row, fmt.Sprintf("%.0f", sv.QPS), metrics.Us(sv.ErrP99S))
				} else {
					row = append(row, "", "")
				}
			}
			tb.AddRow(row...)
		}
	}
	tb.Fprint(stdout)
	fmt.Fprintf(stdout, "\n%d cells, %.0f sim-s total in %.2fs wall (%.0f sim-s/s, %d workers)\n",
		len(camp.Results), camp.TotalSimS(), camp.WallS, camp.TotalSimS()/camp.WallS, camp.Workers)
	for _, r := range camp.Results {
		if len(r.Health) > 0 {
			fmt.Fprintf(stdout, "health: cell %d (%s/seed=%d): %s\n", r.Cell, r.Label, r.Seed, strings.Join(r.Health, ", "))
		}
	}

	if *outDir != "" {
		paths, err := camp.WriteArtifacts(*outDir)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "artifacts: %s\n", strings.Join(paths, ", "))
	}
	if *reportPath != "" {
		if err := writeReport(*reportPath, spec.Name, camp.Results); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "report: %s\n", *reportPath)
	}
	if failed := camp.Failed(); len(failed) > 0 {
		return fail("%d of %d cells failed", len(failed), len(camp.Results))
	}
	return 0
}

// wrapPoints runs fn after each point's own mutation, so it wins over
// the preset's axes, and merges params into each point's Params.
func wrapPoints(pts []harness.Point, params map[string]string, fn func(*cluster.Config)) {
	for i := range pts {
		pt := &pts[i]
		inner := pt.Mutate
		pt.Mutate = func(c *cluster.Config) {
			if inner != nil {
				inner(c)
			}
			fn(c)
		}
		if len(params) > 0 {
			if pt.Params == nil {
				pt.Params = map[string]string{}
			}
			maps.Copy(pt.Params, params)
		}
	}
}
