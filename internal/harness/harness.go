// Package harness is the experiment-campaign engine: it fans a grid of
// cluster configurations (parameter points × seeds) across a worker
// pool, runs each cell as an independent deterministic simulation, and
// aggregates typed results for tables, reports and byte-deterministic
// JSONL/CSV artifacts.
//
// The simulation kernel is seed-deterministic and every cell owns its
// own sim.Simulator, so parallel execution is bit-for-bit reproducible
// regardless of worker count or scheduling order: results are keyed by
// cell index, not completion order. cmd/nticampaign is the thin
// front-end over this package.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"ntisim/internal/cluster"
	"ntisim/internal/metrics"
	"ntisim/internal/service"
	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// Point is one parameter point of a campaign grid: a label, a
// serializable parameter description, and a mutation applied to a
// Clone of the base config.
type Point struct {
	Label string
	// Params describes the point for artifacts/manifests (e.g.
	// {"nodes": "16"}). Keys are merged left-to-right by Cross.
	Params map[string]string
	// Mutate edits the (already cloned) per-cell config. It must be
	// pure: any maps/slices it installs must be freshly allocated per
	// call, never shared across calls.
	Mutate func(*cluster.Config)
}

// Cell is one executable unit of a campaign: a point run under one seed.
type Cell struct {
	// Index is the stable cell ID: position in the seeds × points grid.
	// Results are ordered by Index regardless of execution order.
	Index int
	Point Point
	Seed  uint64
}

// Key is the stable identity of the cell across campaign runs with the
// same grid, as shown in progress lines and on the live monitor.
func (c Cell) Key() string { return fmt.Sprintf("%s/seed=%d", c.Point.Label, c.Seed) }

// Spec declares a campaign.
type Spec struct {
	// Name identifies the campaign in manifests and progress output.
	Name string
	// Base is the configuration every cell starts from (cloned per
	// cell; see cluster.Config.Clone). Base.Seed is overridden by the
	// cell's seed.
	Base cluster.Config
	// Points is the parameter grid (see Cross and the *Axis helpers).
	Points []Point
	// Seeds lists the seeds each point runs under; default {Base.Seed}.
	Seeds []uint64

	// WarmupS is settle time after synchronizer start before sampling
	// begins (default 20 sim-s — past initial-step transients).
	WarmupS float64
	// WindowS is the measurement window (default 60 sim-s).
	WindowS float64
	// SampleEveryS is the sampling period (default 1 sim-s).
	SampleEveryS float64
	// DelayProbes is the RTT probe count for MeasureDelay before start
	// (default 12; negative disables and keeps the a priori bounds).
	DelayProbes int
	// Timeline keeps the per-sample timeline in each Result (heavier
	// artifacts; used by fault studies that care about onset/recovery).
	Timeline bool
	// Trace attaches a cross-layer tracer to every cell's cluster and
	// keeps it in Result.Trace; WriteArtifacts then adds one
	// <name>.cell-NNN.trace.jsonl per cell. Each cell owns its own
	// Tracer, fed by its own single-threaded simulator, so traces are
	// byte-deterministic regardless of worker count.
	Trace bool

	// Telemetry attaches a runtime metrics registry to every cell's
	// cluster (cluster.Config.Telemetry) and captures one
	// telemetry.Snapshot per sampling tick into Result.Telemetry;
	// WriteArtifacts then adds one combined <name>.telemetry.jsonl. Each
	// cell owns its own registry, captured at shard barriers, so the
	// snapshot stream is byte-deterministic regardless of worker or
	// shard-worker count. Watchdog health rules run over the same
	// snapshots and land in Result.Health.
	Telemetry bool
	// Watchdog opts the cells into the precision-drift trend rule when
	// Telemetry is set; the other health rules have fixed thresholds
	// (see telemetry.NewWatchdog).
	Watchdog telemetry.WatchdogConfig
	// Monitor, when non-nil, receives live campaign lifecycle events and
	// per-tick snapshots for the HTTP endpoint (cmd/ntitop). Monitor
	// state is wall-clock territory and never feeds artifacts.
	Monitor *telemetry.Monitor

	// Workers sizes the pool (default GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

func (s *Spec) withDefaults() Spec {
	out := *s
	if out.WarmupS == 0 {
		out.WarmupS = 20
	}
	if out.WindowS == 0 {
		out.WindowS = 60
	}
	if out.SampleEveryS == 0 {
		out.SampleEveryS = 1
	}
	if out.DelayProbes == 0 {
		out.DelayProbes = 12
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if len(out.Seeds) == 0 {
		out.Seeds = []uint64{out.Base.Seed}
	}
	return out
}

// Cells enumerates the seeds × points grid in stable order (seed-major,
// matching how multi-seed tables group rows).
func (s *Spec) Cells() []Cell {
	sp := s.withDefaults()
	var cells []Cell
	for _, seed := range sp.Seeds {
		for _, p := range sp.Points {
			cells = append(cells, Cell{Index: len(cells), Point: p, Seed: seed})
		}
	}
	return cells
}

// SyncTotals aggregates clocksync statistics across a cell's members.
type SyncTotals struct {
	Rounds            uint64 `json:"rounds"`
	CSPsSent          uint64 `json:"csps_sent"`
	CSPsUsed          uint64 `json:"csps_used"`
	ConvergenceFailed uint64 `json:"convergence_failed"`
	ExternalAccepted  uint64 `json:"external_accepted"`
	ExternalRejected  uint64 `json:"external_rejected"`
	// RateCommands counts discipline-commanded frequency adjustments
	// (omitted for the offset-only disciplines, keeping older artifact
	// lines byte-identical).
	RateCommands uint64 `json:"rate_commands,omitempty"`
	// SourcesRejected counts reference-source quarantine entries under
	// multi-source trust (omitted on single-source cells, keeping older
	// artifact lines byte-identical).
	SourcesRejected uint64 `json:"sources_rejected,omitempty"`
}

// AdversaryTotals summarizes a cell's Byzantine activity. Present only
// on cells whose config enables an adversary — the pointer + omitempty
// keep adversary-free artifact lines byte-identical.
type AdversaryTotals struct {
	// Traitors is the cell's adversarial node count.
	Traitors int `json:"traitors"`
	// LiesTold counts adversarially mutated frame deliveries.
	LiesTold uint64 `json:"lies_told"`
	// SourcesRejected mirrors SyncTotals.SourcesRejected for the
	// adversary columns.
	SourcesRejected uint64 `json:"sources_rejected"`
	// HonestViolations counts samples in which some honest (non-traitor)
	// node's accuracy interval failed to contain true time — the
	// Byzantine failure criterion: a traitor's own clock going wrong is
	// configured behavior, an honest node losing containment means the
	// tolerance bound was exceeded.
	HonestViolations int `json:"honest_violations"`
}

// TimelinePoint is one sample of a cell's evolution (kept only when
// Spec.Timeline is set).
type TimelinePoint struct {
	// T is sim time since the start of the measurement window.
	T           float64 `json:"t"`
	PrecisionS  float64 `json:"precision_s"`
	MaxAbsOffS  float64 `json:"max_abs_offset_s"`
	Contained   bool    `json:"contained"`
	ExtAccepted uint64  `json:"ext_accepted"`
	ExtRejected uint64  `json:"ext_rejected"`
}

// Result is the typed outcome of one cell. All series statistics are in
// seconds. The JSON form is stable and deterministic for a given spec —
// wall-clock fields are excluded from serialization so artifacts are
// byte-identical across worker counts and machines.
type Result struct {
	Cell   int               `json:"cell"`
	Label  string            `json:"label"`
	Seed   uint64            `json:"seed"`
	Params map[string]string `json:"params,omitempty"`

	// Precision is max pairwise clock difference per sample;
	// Accuracy is max |C_i − t|; Width is the mean accuracy-interval
	// half-width across nodes.
	Precision metrics.SeriesStats `json:"precision"`
	Accuracy  metrics.SeriesStats `json:"accuracy"`
	Width     metrics.SeriesStats `json:"width"`
	// ContainmentViolations counts samples where some node's accuracy
	// interval failed to contain real time (requirement (A) of §2).
	ContainmentViolations int `json:"containment_violations"`
	Samples               int `json:"samples"`

	Sync SyncTotals `json:"sync"`
	// CSPUse is used/(sent·(n−1)): the fraction of broadcast CSPs that
	// survived to convergence at their receivers.
	CSPUse float64 `json:"csp_use"`

	// Events is the number of simulation events fired; SimS the total
	// simulated span. Together with WallS they give throughput.
	Events uint64  `json:"events"`
	SimS   float64 `json:"sim_s"`
	// WallS and EventsPerWallS are excluded from JSON: they vary
	// run-to-run and would break artifact determinism. Use Throughput
	// (or the progress stream) for reporting.
	WallS float64 `json:"-"`
	// EventsPerWallS is kernel event throughput — fired events per
	// wall-clock second — the profiling hook for event-queue work.
	EventsPerWallS float64 `json:"-"`

	// Serving carries the served-accuracy statistics of the simulated
	// client population when the cell's config enables one
	// (cluster.Config.Serving); nil otherwise. The pointer + omitempty
	// keep pre-serving artifact lines byte-identical.
	Serving *service.Stats `json:"serving,omitempty"`

	// Adversary carries the Byzantine activity summary when the cell's
	// config enables an adversary; nil otherwise.
	Adversary *AdversaryTotals `json:"adversary,omitempty"`

	// Health lists the watchdog flags the cell tripped (only when
	// Spec.Telemetry; omitted — and byte-invisible — when healthy).
	Health []string `json:"health,omitempty"`

	Err string `json:"error,omitempty"`

	Timeline []TimelinePoint `json:"timeline,omitempty"`

	// Trace is the cell's cross-layer tracer (only when Spec.Trace).
	// Excluded from the Result JSON — traces are written as their own
	// per-cell JSONL artifacts, keeping the campaign JSONL stable.
	Trace *trace.Tracer `json:"-"`

	// Telemetry is the cell's snapshot stream (only when Spec.Telemetry).
	// Excluded from the Result JSON — snapshots are written to the
	// combined <name>.telemetry.jsonl artifact instead.
	Telemetry []telemetry.Snapshot `json:"-"`
}

// Key matches Cell.Key.
func (r *Result) Key() string { return fmt.Sprintf("%s/seed=%d", r.Label, r.Seed) }

// Throughput returns simulated seconds per wall-clock second (0 when
// the cell failed before running).
func (r *Result) Throughput() float64 {
	if r.WallS <= 0 {
		return 0
	}
	return r.SimS / r.WallS
}

// Campaign is an executed Spec.
type Campaign struct {
	Spec Spec
	// Results is indexed by cell ID (stable grid order).
	Results []Result
	// WallS is the total wall-clock time of the run.
	WallS float64
	// Workers is the resolved pool size.
	Workers int
}

// TotalSimS sums simulated time across cells.
func (c *Campaign) TotalSimS() float64 {
	var s float64
	for i := range c.Results {
		s += c.Results[i].SimS
	}
	return s
}

// Failed returns the results that errored.
func (c *Campaign) Failed() []Result {
	var out []Result
	for _, r := range c.Results {
		if r.Err != "" {
			out = append(out, r)
		}
	}
	return out
}

// Run executes the campaign: every cell on its own simulator, fanned
// across Workers goroutines. Results land in grid order, so output is
// independent of scheduling. Run never fails the whole campaign for a
// failing cell — per-cell panics are captured into Result.Err.
func Run(spec Spec) *Campaign {
	sp := spec.withDefaults()
	cells := sp.Cells()
	camp := &Campaign{Spec: sp, Results: make([]Result, len(cells)), Workers: sp.Workers}

	start := time.Now()
	sp.Monitor.Begin(sp.Name, len(cells))
	var mu sync.Mutex // progress writer + completion counter
	done := 0
	ForEachWorker(sp.Workers, len(cells), func(worker, i int) {
		cell := cells[i]
		sp.Monitor.CellStart(worker, cell.Key())
		r := runCell(&sp, cell)
		sp.Monitor.CellEnd(worker, cell.Key(), r.SimS, r.Health, r.Err != "")
		camp.Results[cell.Index] = r
		if sp.Progress != nil {
			mu.Lock()
			done++
			status := fmt.Sprintf("prec(mean)=%sµs", metrics.Us(r.Precision.Mean))
			if r.Err != "" {
				status = "ERROR: " + r.Err
			}
			fmt.Fprintf(sp.Progress, "[%*d/%d] %-28s %s (%.2fs wall, %.0f sim-s/s, %.0f ev/s)\n",
				digits(len(cells)), done, len(cells), cell.Key(), status, r.WallS, r.Throughput(), r.EventsPerWallS)
			mu.Unlock()
		}
	})
	camp.WallS = time.Since(start).Seconds()
	return camp
}

func digits(n int) int { return len(fmt.Sprint(n)) }

// runCell executes one independent simulation and summarizes it.
func runCell(sp *Spec, cell Cell) (res Result) {
	res = Result{Cell: cell.Index, Label: cell.Point.Label, Seed: cell.Seed, Params: cell.Point.Params}
	wallStart := time.Now()
	defer func() {
		res.WallS = time.Since(wallStart).Seconds()
		if res.WallS > 0 {
			res.EventsPerWallS = float64(res.Events) / res.WallS
		}
		if p := recover(); p != nil {
			res.Err = fmt.Sprint(p)
		}
	}()

	cfg := sp.Base.Clone()
	if cell.Point.Mutate != nil {
		cell.Point.Mutate(&cfg)
	}
	cfg.Seed = cell.Seed
	if sp.Trace {
		res.Trace = trace.New(trace.Options{})
		cfg.Tracer = res.Trace
	}
	// Each cell gets its own registry and watchdog — like the tracer,
	// they are fed only from the cell's own simulator(s), so the
	// snapshot stream is deterministic at any worker count. The harness
	// mirrors its containment verdicts into the registry so watchdog
	// rules can key on them.
	adversarial := cfg.Adversary.Enabled()
	var wd *telemetry.Watchdog
	var tmViol, tmHonest *telemetry.Counter
	if sp.Telemetry {
		cfg.Telemetry = telemetry.New()
		wd = telemetry.NewWatchdog(sp.Watchdog)
		tmViol = cfg.Telemetry.Counter(telemetry.MetricContainment)
		if adversarial {
			// Registered only on adversarial cells so legacy snapshot
			// streams keep their exact metric set.
			tmHonest = cfg.Telemetry.Counter(telemetry.MetricHonestContainment)
		}
	}

	c := cluster.New(cfg)
	if sp.DelayProbes > 0 && len(c.Members) >= 2 {
		b := c.MeasureDelay(0, 1, sp.DelayProbes)
		for _, m := range c.Members {
			m.Sync.SetDelayBounds(b)
		}
	}
	c.Start(c.Now() + 1)
	c.RunUntil(c.Now() + sp.WarmupS)

	// The sample count is fixed by the window and period, so the series
	// can be sized exactly up front — steady-state sampling never grows
	// a backing array (the pre-sized Add path is alloc-pinned in
	// metrics' TestSeriesGrowAllocFree).
	samples := int(sp.WindowS/sp.SampleEveryS) + 2
	var prec, acc, width, w metrics.Series
	prec.Grow(samples)
	acc.Grow(samples)
	width.Grow(samples)
	w.Grow(len(c.Members))
	begin := c.Now()
	honestViolations := 0
	serving := cfg.Serving.Clients > 0
	if serving {
		c.StartServing(begin)
	}
	for t := begin; t <= begin+sp.WindowS; t += sp.SampleEveryS {
		c.RunUntil(t)
		cs := c.Snapshot()
		prec.Add(cs.Precision)
		acc.Add(cs.MaxAbsOffset)
		w.Reset()
		for _, m := range c.Members {
			am, ap := m.U.Alpha()
			w.Add((am.Duration().Seconds() + ap.Duration().Seconds()) / 2)
		}
		width.Add(w.Mean())
		if !cs.Contained {
			res.ContainmentViolations++
			tmViol.Inc()
		}
		if adversarial {
			// Byzantine failure criterion: containment over the honest
			// subset only. cs.Contained covers every node, but a traitor
			// losing containment on its own steered clock is not a
			// tolerance failure.
			for _, m := range c.Members {
				if c.Traitor(m.Index) {
					continue
				}
				if _, lo, hi := m.OffsetAndBounds(); lo > 0 || hi < 0 {
					honestViolations++
					tmHonest.Inc()
					break
				}
			}
		}
		res.Samples++
		if sp.Telemetry {
			snap, _ := c.TelemetrySnapshot()
			wd.Observe(snap)
			wd.ObservePrecision(cs.Precision)
			res.Telemetry = append(res.Telemetry, snap)
			sp.Monitor.Publish(snap)
		}
		if sp.Timeline {
			var ea, er uint64
			for _, m := range c.Members {
				st := m.Sync.Stats()
				ea += st.ExternalAccepted
				er += st.ExternalRejected
			}
			res.Timeline = append(res.Timeline, TimelinePoint{
				T:           c.Now() - begin,
				PrecisionS:  cs.Precision,
				MaxAbsOffS:  cs.MaxAbsOffset,
				Contained:   cs.Contained,
				ExtAccepted: ea,
				ExtRejected: er,
			})
		}
	}

	for _, m := range c.Members {
		st := m.Sync.Stats()
		res.Sync.Rounds += st.Rounds
		res.Sync.CSPsSent += st.CSPsSent
		res.Sync.CSPsUsed += st.CSPsUsed
		res.Sync.ConvergenceFailed += st.ConvergenceFailed
		res.Sync.ExternalAccepted += st.ExternalAccepted
		res.Sync.ExternalRejected += st.ExternalRejected
		res.Sync.RateCommands += st.RateCommands
		res.Sync.SourcesRejected += st.SourcesRejected
	}
	if ideal := res.Sync.CSPsSent * uint64(len(c.Members)-1); ideal > 0 {
		res.CSPUse = float64(res.Sync.CSPsUsed) / float64(ideal)
	}
	res.Precision = prec.Stats()
	res.Accuracy = acc.Stats()
	res.Width = width.Stats()
	res.Events = c.EventCount()
	res.SimS = c.Now()
	if serving {
		st := c.ServingReport(c.Now() - begin)
		res.Serving = &st
	}
	if adversarial {
		res.Adversary = &AdversaryTotals{
			Traitors:         c.TraitorCount(),
			LiesTold:         c.AdversaryLies(),
			SourcesRejected:  res.Sync.SourcesRejected,
			HonestViolations: honestViolations,
		}
	}
	if sp.Trace {
		// Sharded clusters trace per shard; Trace() returns the merged
		// canonical-order tracer (the configured one for unsharded).
		res.Trace = c.Trace()
	}
	if wd != nil {
		res.Health = wd.Flags()
	}
	return res
}
