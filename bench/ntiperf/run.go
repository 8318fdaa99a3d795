package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// options set how much a run measures. The command line sets seconds
// and traceDir; tests shrink the rest.
type options struct {
	seconds   float64       // host seconds of timed reps per workload
	setups    int           // fresh builds timed for setup_s; the first is discarded
	warmup    bool          // run one discarded rep before the timed ones
	probeTime time.Duration // testing.Benchmark time per layer probe
	traceDir  string        // where a traced run writes spans and CPU profiles
}

var defaultOptions = options{
	seconds:   20,
	setups:    21,
	warmup:    true,
	probeTime: 300 * time.Millisecond,
	traceDir:  ".bench_build/trace",
}

// runResult is one run of one workload, as printed and as one ledger
// line.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Reps      int                `json:"reps"`
	Metrics   map[string]summary `json:"metrics"`
	// Simulated are outputs of the modelled system, identical on every
	// rep at one seed: they check the run, they do not time it.
	Simulated map[string]float64 `json:"simulated"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostInfo {
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

func newResult(w workload, seed uint64, traced bool) runResult {
	return runResult{Workload: w.name, Seed: seed, Trace: traced, Host: host(), Correct: true,
		Metrics: map[string]summary{}, Simulated: map[string]float64{}}
}

// check records a failed correctness check.
func (r *runResult) check(err error) {
	if err != nil {
		r.Correct = false
		r.Problems = append(r.Problems, err.Error())
	}
}

// rep runs one rep of w and records a digest that fails dc.
func (r *runResult) rep(w workload, seed uint64, tr *tracing, dc *digestCheck) (repResult, error) {
	rep, err := w.rep(seed, tr)
	if err == nil {
		r.check(dc.add(rep.digest))
	}
	return rep, err
}

func (r *runResult) simulated(rep repResult) {
	r.Digest = rep.digest
	r.Simulated["precision_us"] = rep.precisionUs
	r.Simulated["served_p99_err_us"] = rep.servedP99Us
}

// timedRun measures the end-to-end metrics of one workload with
// tracing off: set-up builds, a discarded warm-up rep, then timed reps
// until the time budget is spent.
func timedRun(w workload, seed uint64, o options) (runResult, error) {
	res := newResult(w, seed, false)
	cr := w.setupRun(seed)
	// Each build starts from the memory state of a fresh process, with
	// all freed memory returned to the OS, and runs with the collector
	// paused: otherwise the background scavenger and the point where a
	// collection starts make build times bimodal.
	var setups []float64
	for i := 0; i < o.setups; i++ {
		debug.FreeOSMemory()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		c := cr.build(seed, nil, -1)
		d := time.Since(t0).Seconds()
		debug.SetGCPercent(gc)
		runtime.KeepAlive(c)
		if i > 0 {
			setups = append(setups, d)
		}
	}
	res.Metrics["setup_s"] = summarize("s", setups)

	dc := w.digests(seed)
	if o.warmup {
		if _, err := res.rep(w, seed, nil, dc); err != nil {
			return res, err
		}
	}
	var rate, alloc, heap []float64
	start := time.Now()
	for last := 0.0; len(rate) == 0 || time.Since(start).Seconds()+last <= o.seconds; {
		t0 := time.Now()
		r, err := res.rep(w, seed, nil, dc)
		if err != nil {
			return res, err
		}
		last = time.Since(t0).Seconds()
		rate = append(rate, r.simS/r.wallS)
		alloc = append(alloc, float64(r.allocBytes)/1e6/r.simS)
		heap = append(heap, float64(r.liveHeap)/1e6)
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.simulated(r)
	}
	res.Reps = len(rate)
	res.Metrics["sim_s_per_s"] = summarize("sim-s/s", rate)
	res.Metrics["alloc_mb_per_sim_s"] = summarize("MB/sim-s", alloc)
	res.Metrics["live_heap_mb"] = summarize("MB", heap)
	return res, nil
}

// tracedRun measures the per-layer metrics of one workload: the layer
// probes, one untraced rep for the timed figures, then one traced rep
// with a telemetry registry, the benchmark's spans and a CPU profile of
// its timed window.
func tracedRun(w workload, seed uint64, o options) (runResult, error) {
	res := newResult(w, seed, true)
	l := runProbes(o.probeTime)
	dc := w.digests(seed)
	if o.warmup {
		if _, err := res.rep(w, seed, nil, dc); err != nil {
			return res, err
		}
	}
	plain, err := res.rep(w, seed, nil, dc)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return res, err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	tr := &tracing{t0: time.Now(), profile: base + ".cpu.pprof"}
	traced, err := res.rep(w, seed, tr, dc)
	if err != nil {
		return res, err
	}
	if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return res, err
	}
	text, err := pprofTraces(tr.profile)
	if err != nil {
		return res, err
	}
	stacks, err := parseTraces(strings.NewReader(text))
	if err != nil {
		return res, err
	}
	for k, v := range cpuShares(stacks) {
		l[k+".cpu_share"] = v
	}
	for k, v := range traced.layers {
		l[k] = v
	}
	l["sim.ns_per_event"] = ratio(plain.runWallS*1e9, float64(plain.events))
	l["runtime.gc_cycles"] = float64(plain.gcCycles)
	l["runtime.gc_pause_ms"] = float64(plain.gcPauseNs) / 1e6
	l["runtime.mallocs_per_sim_s"] = float64(plain.mallocs) / plain.simS
	l["trace.overhead"] = (plain.simS/plain.wallS)/(traced.simS/traced.wallS) - 1
	l["metrics.precision_us"] = plain.precisionUs
	l["svc.served_p99_err_us"] = plain.servedP99Us
	if len(plain.cellWalls) > 0 {
		l["harness.cell_wall_s_p50"] = quantile(plain.cellWalls, 0.5)
		l["harness.cell_wall_s_max"] = slices.Max(plain.cellWalls)
		l["harness.worker_util"] = plain.runWallS / (plain.wallS * float64(plain.workers))
		l["harness.cells_per_s"] = float64(len(plain.cellWalls)) / plain.wallS
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = summarize(d.Unit, []float64{l[d.Name]})
	}
	res.Reps = 1
	res.Attempted, res.Failed = plain.attempted, plain.failed
	res.simulated(plain)
	return res, nil
}

// span is one call the benchmark made into the simulator.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the causing span; -1 for a rep
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// tracing records a traced rep: spans around the public calls the
// benchmark makes, kept in memory and written out at the end, and a CPU
// profile of the timed window. A nil *tracing records nothing.
type tracing struct {
	t0      time.Time
	spans   []span
	profile string // CPU profile path; "" for none
	prof    *os.File
	err     error
}

func (t *tracing) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartS: time.Since(t.t0).Seconds()})
	return len(t.spans) - 1
}

func (t *tracing) end(id int) {
	if t != nil {
		t.spans[id].EndS = time.Since(t.t0).Seconds()
	}
}

// adopt appends the spans another tracing recorded.
func (t *tracing) adopt(o *tracing) {
	off := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// durations returns the host seconds of every span with this name.
func (t *tracing) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.EndS-s.StartS)
		}
	}
	return out
}

func (t *tracing) startProfile() {
	if t == nil || t.profile == "" || t.err != nil {
		return
	}
	if t.prof, t.err = os.Create(t.profile); t.err != nil {
		return
	}
	t.err = pprof.StartCPUProfile(t.prof)
}

func (t *tracing) stopProfile() {
	if t == nil || t.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := t.prof.Close(); t.err == nil {
		t.err = err
	}
	t.prof = nil
}

func (t *tracing) error() error {
	if t == nil {
		return nil
	}
	return t.err
}

func (t *tracing) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
