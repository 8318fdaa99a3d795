package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"strings"
	"time"

	"ntisim/internal/adversary"
	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/harness"
	"ntisim/internal/service"
	"ntisim/internal/telemetry"
)

// benchSeed is the default workload seed; goldens are digests at it.
const benchSeed = 1998

// delayProbes is the RTT probe count of a calibrating build, as in
// harness campaigns and BenchmarkServing.
const delayProbes = 12

// workload is one named benchmark input: either a cluster driven
// directly through its public API, or a harness campaign.
type workload struct {
	name, why string
	// golden is the SHA-256 of one rep's simulated outputs at benchSeed.
	golden   string
	cluster  *clusterRun
	campaign func(seed uint64) harness.Spec
}

// workloads are the benchmark's inputs. Their names are cited
// elsewhere; keep them.
var workloads = []workload{
	{
		name:   "lan-32",
		why:    "the paper's Fig. 2 system at twice the 16-node prototype: event queue, medium fan-out, COMCO DMA, rx ISR and clock fusion do the work",
		golden: "29ef0d64ae7683345b458628f5f2a5e6c7fc175cc6a55203d1b37ac7f53010ca",
		cluster: &clusterRun{
			config:    func(seed uint64) cluster.Config { return cluster.Defaults(32, seed) },
			calibrate: true, warmS: 10, windowS: 600,
		},
	},
	{
		name:   "wol-512x16",
		why:    "the scale question: 512 nodes in 16 sharded segments, dominated by window barriers, WAN relays and a large build",
		golden: "7c74b4f6e89e25a5d2a0b1d037376c95f877346c207dae942910202708ddcdad",
		cluster: &clusterRun{
			config: func(seed uint64) cluster.Config {
				cfg := cluster.Defaults(512, seed)
				cfg.Segments = 16
				cfg.Sync.F = 1
				return cfg
			},
			warmS: 5, windowS: 30,
		},
	},
	{
		name:   "serve-16x4",
		why:    "the read path: 1e7 MMPP clients sample node clocks on a 16x4 sharded topology with light sync load, so barriers and queries dominate",
		golden: "10fb3aa763a24ab1bcbe9e937e48cb89c46d3d9e1ba679811464f484fbf9af5f",
		cluster: &clusterRun{
			config: func(seed uint64) cluster.Config {
				cfg := cluster.Defaults(16, seed)
				cfg.Segments = 4
				cfg.Sync.F = 1
				cfg.Serving = service.Config{Clients: 10000000, Arrival: "mmpp", RegionalSkew: 1.5}
				return cfg
			},
			calibrate: true, warmS: 10, windowS: 1200,
		},
	},
	{
		name:     "campaign-byz",
		why:      "how users consume the simulator: the 96-cell Byzantine campaign through the harness pool, with adversaries and telemetry",
		golden:   "f6148ea479d5897c2ddb6f6da62ccc4dc6b1bd381b0616676008d00fa62af60c",
		campaign: byzantineSpec,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// byzantineSpec is nticampaign's byzantine preset (every discipline ×
// nodes {8,16} × traitor fraction {0, .125, .25, .375} on a 2-segment
// topology) under seeds {seed, seed+1}, one worker per CPU and one
// shard worker per cell, with telemetry on.
func byzantineSpec(seed uint64) harness.Spec {
	pts := harness.Cross(
		harness.DisciplineAxis(),
		harness.NodesAxis(8, 16),
		harness.TraitorsAxis(0, 0.125, 0.25, 0.375),
	)
	for i := range pts {
		inner := pts[i].Mutate
		pts[i].Mutate = func(c *cluster.Config) {
			inner(c)
			c.Sync.F = min((c.Nodes-1)/3, 5)
		}
	}
	base := cluster.Defaults(8, seed)
	base.Segments = 2
	base.Shards = 1
	base.GatewaysPerLink = 3
	base.GPS = map[int]gps.Config{0: gps.DefaultReceiver(), 1: gps.DefaultReceiver()}
	base.Sync.SourceF = 1
	base.Adversary = adversary.Spec{
		Attack:     adversary.AttackCollude,
		MagnitudeS: 500e-6,
		Sources:    3,
		GNSS: []adversary.GNSSEvent{{
			Kind: adversary.GNSSSpoof, StartS: 25, EndS: 35,
			OffsetS: 20e-3, Sources: 1,
		}},
	}
	spec := harness.Spec{
		Name:      "byzantine",
		Base:      base,
		Points:    pts,
		Seeds:     []uint64{seed, seed + 1},
		WarmupS:   10,
		WindowS:   30,
		Telemetry: true,
		Workers:   runtime.NumCPU(),
	}
	spec.Watchdog.PrecisionDriftWindow = 8
	return spec
}

// largestCell is the campaign cell with the most nodes (the last such
// in grid order), as a cluster run with the campaign's schedule.
func largestCell(spec harness.Spec) *clusterRun {
	var best cluster.Config
	for _, cell := range spec.Cells() {
		cfg := spec.Base.Clone()
		cell.Point.Mutate(&cfg)
		cfg.Seed = cell.Seed
		if cfg.Nodes >= best.Nodes {
			best = cfg
		}
	}
	return &clusterRun{
		config:    func(uint64) cluster.Config { return best.Clone() },
		calibrate: true, warmS: spec.WarmupS, windowS: spec.WindowS,
	}
}

// setupRun is what one set-up builds: the workload's cluster, or the
// campaign's largest cell.
func (w workload) setupRun(seed uint64) *clusterRun {
	if w.cluster != nil {
		return w.cluster
	}
	return largestCell(w.campaign(seed))
}

func (w workload) rep(seed uint64, tr *tracing) (repResult, error) {
	if w.cluster != nil {
		return w.cluster.rep(seed, tr)
	}
	return campaignRep(w.campaign(seed), seed, tr)
}

// repResult is one rep's measurements. The timed window is the sampled
// run of a cluster, or the whole harness.Run of a campaign.
type repResult struct {
	simS, wallS float64 // simulated and host seconds of the timed window
	allocBytes  uint64
	mallocs     uint64
	gcCycles    uint32
	gcPauseNs   uint64
	liveHeap    uint64  // HeapAlloc after a GC, the system still reachable
	runWallS    float64 // host seconds inside RunUntil, or inside cells
	events      uint64  // events fired in the timed window
	cellWalls   []float64
	workers     int

	attempted, failed int // samples (cells) taken and those that failed
	digest            string
	precisionUs       float64 // max over samples (cells), simulated
	servedP99Us       float64 // simulated; 0 without a client population

	layers map[string]float64 // per-layer values, traced reps only
}

// window measures the host side of a timed window.
type window struct {
	t0 time.Time
	m0 runtime.MemStats
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.m0)
	w.t0 = time.Now()
	return w
}

func (w *window) close(r *repResult) {
	r.wallS = time.Since(w.t0).Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.allocBytes = m.TotalAlloc - w.m0.TotalAlloc
	r.mallocs = m.Mallocs - w.m0.Mallocs
	r.gcCycles = m.NumGC - w.m0.NumGC
	r.gcPauseNs = m.PauseTotalNs - w.m0.PauseTotalNs
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// clusterRun drives one cluster: build (plus delay calibration when
// calibrate is set), start, warm up for warmS, then the timed window of
// windowS simulated seconds sampled every simulated second.
type clusterRun struct {
	config    func(seed uint64) cluster.Config
	calibrate bool
	warmS     float64
	windowS   float64
}

// build is one set-up: cluster.New, plus MeasureDelay where the run
// calibrates. A traced build gets a telemetry registry.
func (cr *clusterRun) build(seed uint64, tr *tracing, parent int) *cluster.Cluster {
	cfg := cr.config(seed)
	if tr != nil {
		cfg.Telemetry = telemetry.New()
	}
	id := tr.begin("cluster.New", parent)
	c := cluster.New(cfg)
	tr.end(id)
	if cr.calibrate {
		id = tr.begin("cluster.MeasureDelay", parent)
		db := c.MeasureDelay(0, 1, delayProbes)
		for _, m := range c.Members {
			m.Sync.SetDelayBounds(db)
		}
		tr.end(id)
	}
	return c
}

func (cr *clusterRun) rep(seed uint64, tr *tracing) (repResult, error) {
	root := tr.begin("rep", -1)
	defer tr.end(root)
	c := cr.build(seed, tr, root)
	id := tr.begin("cluster.Start", root)
	c.Start(c.Now() + 1)
	tr.end(id)
	id = tr.begin("cluster.RunUntil(warm-up)", root)
	c.RunUntil(c.Now() + cr.warmS)
	tr.end(id)
	serving := len(c.ServingGens) > 0
	if serving {
		c.StartServing(c.Now())
	}

	var res repResult
	h := sha256.New()
	var buf [17]byte
	samples := int(math.Round(cr.windowS))
	begin, events0 := c.Now(), c.EventCount()
	tr.startProfile()
	win := openWindow()
	for i := 1; i <= samples; i++ {
		id := tr.begin("cluster.RunUntil", root)
		t0 := time.Now()
		c.RunUntil(begin + float64(i))
		res.runWallS += time.Since(t0).Seconds()
		tr.end(id)
		id = tr.begin("cluster.Snapshot", root)
		cs := c.Snapshot()
		tr.end(id)
		if tr != nil {
			id = tr.begin("cluster.TelemetrySnapshot", root)
			c.TelemetrySnapshot()
			tr.end(id)
		}
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(cs.Precision))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(cs.MaxAbsOffset))
		buf[16] = 0
		if cs.Contained {
			buf[16] = 1
		} else {
			res.failed++
		}
		h.Write(buf[:])
		res.attempted++
		res.precisionUs = math.Max(res.precisionUs, cs.Precision*1e6)
	}
	win.close(&res)
	tr.stopProfile()
	res.simS = c.Now() - begin
	res.events = c.EventCount() - events0

	var served service.Stats
	if serving {
		id := tr.begin("cluster.ServingReport", root)
		served = c.ServingReport(res.simS)
		tr.end(id)
		res.servedP99Us = served.ErrP99S * 1e6
		hashFloats(h, served.QPS, served.ErrMeanS, served.ErrP50S, served.ErrP99S, served.ErrP999S, served.ErrMaxS)
		hashUints(h, served.Queries)
	}
	totals := syncTotals(c)
	hashUints(h, c.EventCount(), totals.Rounds, totals.CSPsSent, totals.CSPsUsed, totals.ConvergenceFailed,
		totals.ExternalAccepted, totals.ExternalRejected, totals.RateCommands, totals.SourcesRejected)
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.liveHeap = liveHeap()
	if tr != nil {
		res.layers = clusterLayers(c, totals, served, tr)
	}
	runtime.KeepAlive(c)
	return res, tr.error()
}

func hashFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

func hashUints(h hash.Hash, vs ...uint64) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
}

// syncTotals sums the members' synchronizer statistics.
func syncTotals(c *cluster.Cluster) harness.SyncTotals {
	var t harness.SyncTotals
	for _, m := range c.Members {
		st := m.Sync.Stats()
		t.Rounds += st.Rounds
		t.CSPsSent += st.CSPsSent
		t.CSPsUsed += st.CSPsUsed
		t.ConvergenceFailed += st.ConvergenceFailed
		t.ExternalAccepted += st.ExternalAccepted
		t.ExternalRejected += st.ExternalRejected
		t.RateCommands += st.RateCommands
		t.SourcesRejected += st.SourcesRejected
	}
	return t
}

// campaignRep runs the campaign once; its digest covers the bytes of
// the campaign's JSONL and telemetry JSONL artifacts.
func campaignRep(spec harness.Spec, seed uint64, tr *tracing) (repResult, error) {
	var res repResult
	var cell repResult
	if tr != nil {
		// The cells run inside harness, out of the benchmark's reach. The
		// largest cell, run here on its own, gives the spans of the
		// per-call layers (cluster, metrics, telemetry); it is not
		// profiled.
		side := &tracing{t0: tr.t0}
		var err error
		if cell, err = largestCell(spec).rep(seed, side); err != nil {
			return res, err
		}
		tr.adopt(side)
	}
	root := tr.begin("rep", -1)
	defer tr.end(root)
	tr.startProfile()
	win := openWindow()
	id := tr.begin("harness.Run", root)
	camp := harness.Run(spec)
	tr.end(id)
	win.close(&res)
	tr.stopProfile()

	h := sha256.New()
	id = tr.begin("Campaign.WriteJSONL", root)
	err := camp.WriteJSONL(h)
	tr.end(id)
	if err != nil {
		return res, err
	}
	id = tr.begin("Campaign.WriteTelemetryJSONL", root)
	err = camp.WriteTelemetryJSONL(h)
	tr.end(id)
	if err != nil {
		return res, err
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.simS = camp.TotalSimS()
	res.workers = camp.Workers
	for i := range camp.Results {
		r := &camp.Results[i]
		res.attempted++
		if r.Err != "" {
			res.failed++
		}
		res.events += r.Events
		res.runWallS += r.WallS
		res.cellWalls = append(res.cellWalls, r.WallS)
		res.precisionUs = math.Max(res.precisionUs, r.Precision.Max*1e6)
	}
	res.liveHeap = liveHeap()
	if tr != nil {
		res.layers = campaignLayers(camp, cell.layers)
	}
	runtime.KeepAlive(camp)
	return res, tr.error()
}

// clusterLayers reads every layer's public counters after a traced
// cluster rep, plus the spans of the calls the rep made.
func clusterLayers(c *cluster.Cluster, totals harness.SyncTotals, served service.Stats, tr *tracing) map[string]float64 {
	snap, _ := c.TelemetrySnapshot()
	l := snapshotLayers(snap, c.Now())
	for _, m := range c.Members {
		tx, rx := m.Node.COMCO.Stats()
		l["comco.tx_frames"] += float64(tx)
		l["comco.rx_frames"] += float64(rx)
		l["kernel.ci_delivered"] += float64(m.Node.CIDelivered())
		l["kernel.overruns"] += float64(m.Node.Overruns())
	}
	l["sync.rounds"] = float64(totals.Rounds)
	l["sync.convergence_failed_ratio"] = ratio(float64(totals.ConvergenceFailed), float64(totals.Rounds))
	l["sync.csp_use"] = ratio(float64(totals.CSPsUsed), float64(totals.CSPsSent)*float64(len(c.Members)-1))
	l["sync.sources_rejected"] = float64(totals.SourcesRejected)
	l["svc.queries_per_sim_s"] = served.QPS
	l["service.report_ms"] = mean(tr.durations("cluster.ServingReport")) * 1e3
	l["adv.lies_told"] = float64(c.AdversaryLies())
	l["telemetry.capture_us"] = mean(tr.durations("cluster.TelemetrySnapshot")) * 1e6
	l["metrics.snapshot_us"] = mean(tr.durations("cluster.Snapshot")) * 1e6
	l["cluster.new_ms"] = mean(tr.durations("cluster.New")) * 1e3
	l["cluster.measure_delay_ms"] = mean(tr.durations("cluster.MeasureDelay")) * 1e3
	steps := tr.durations("cluster.RunUntil")
	l["cluster.step_ms_p50"] = quantile(steps, 0.5) * 1e3
	l["cluster.step_samples"] = float64(len(steps))
	if p, v, ok := tailPercentile(steps); ok {
		l["cluster.step_tail_pct"] = p * 100
		l["cluster.step_ms_tail"] = v * 1e3
	}
	return l
}

// campaignLayers sums the cells' final telemetry snapshots and result
// totals; the per-call layers come from the largest cell's run.
func campaignLayers(camp *harness.Campaign, cell map[string]float64) map[string]float64 {
	merged := telemetry.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]telemetry.GaugeValue{}}
	var cspUse, lies, srcRej, rounds, failed float64
	for i := range camp.Results {
		r := &camp.Results[i]
		if n := len(r.Telemetry); n > 0 {
			last := r.Telemetry[n-1]
			for k, v := range last.Counters {
				merged.Counters[k] += v
			}
			for k, g := range last.Gauges {
				if g.Hi > merged.Gauges[k].Hi {
					merged.Gauges[k] = g
				}
			}
		}
		cspUse += r.CSPUse
		rounds += float64(r.Sync.Rounds)
		failed += float64(r.Sync.ConvergenceFailed)
		srcRej += float64(r.Sync.SourcesRejected)
		if r.Adversary != nil {
			lies += float64(r.Adversary.LiesTold)
		}
	}
	l := snapshotLayers(merged, camp.TotalSimS())
	l["sync.rounds"] = rounds
	l["sync.convergence_failed_ratio"] = ratio(failed, rounds)
	l["sync.csp_use"] = ratio(cspUse, float64(len(camp.Results)))
	l["sync.sources_rejected"] = srcRej
	l["adv.lies_told"] = lies
	for _, k := range []string{"telemetry.capture_us", "metrics.snapshot_us", "cluster.new_ms",
		"cluster.measure_delay_ms", "cluster.step_ms_p50", "cluster.step_ms_tail",
		"cluster.step_tail_pct", "cluster.step_samples"} {
		l[k] = cell[k]
	}
	return l
}

// snapshotLayers derives the sim, group and network metrics from a
// telemetry snapshot covering simS simulated seconds.
func snapshotLayers(s telemetry.Snapshot, simS float64) map[string]float64 {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	fired := c(telemetry.MetricEventsFired)
	sent := c("net.frames_sent")
	return map[string]float64{
		"sim.events_fired":        fired,
		"sim.events_per_sim_s":    ratio(fired, simS),
		"sim.cancel_ratio":        ratio(c("sim.events_cancelled"), c("sim.events_scheduled")),
		"sim.queue_depth_hi":      gaugeHi(s, telemetry.MetricQueueDepth),
		"group.windows":           c("group.windows"),
		"group.events_per_window": ratio(fired, c("group.windows")),
		"group.posts_flushed":     c("group.posts_flushed"),
		"group.imbalance_hi":      gaugeHi(s, "group.imbalance"),
		"network.frames_sent":     sent,
		"network.loss_ratio":      ratio(c("net.frames_lost")+c("net.crc_corrupt"), sent),
		"network.contended":       c("net.contended"),
		"network.wan_tx":          c("net.wan_tx"),
		"network.relay_fwd":       c("net.relay_fwd"),
	}
}

// gaugeHi is the highest high-water mark of a gauge over its per-shard
// keys (name or name@shard).
func gaugeHi(s telemetry.Snapshot, name string) float64 {
	var hi float64
	for k, g := range s.Gauges {
		if k == name || strings.HasPrefix(k, name+"@") {
			hi = math.Max(hi, g.Hi)
		}
	}
	return hi
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// digestCheck checks a run's reps: every rep must give the first rep's
// digest, and the first must match golden when that is set.
type digestCheck struct{ golden, first string }

// digests returns the check for a run of w at seed; the golden applies
// at benchSeed only.
func (w workload) digests(seed uint64) *digestCheck {
	if seed == benchSeed {
		return &digestCheck{golden: w.golden}
	}
	return &digestCheck{}
}

func (d *digestCheck) add(got string) error {
	if d.first == "" {
		d.first = got
		if d.golden != "" && got != d.golden {
			return fmt.Errorf("digest %s at seed %d, golden %s", got, benchSeed, d.golden)
		}
		return nil
	}
	if got != d.first {
		return fmt.Errorf("rep digest %s differs from the first rep's %s", got, d.first)
	}
	return nil
}
