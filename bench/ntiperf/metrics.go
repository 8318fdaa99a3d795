package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them, and none can
// be zero. The timing bounds are the largest allowed, because runs on
// a shared 2-core host spread by up to 14% (README.md); setup_s must
// carry the largest bound.
var endToEnd = []metricDef{
	{"sim_s_per_s", "sim-s/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_sim_s", "MB/sim-s", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// cpuLayers are the buckets CPU profile samples are attributed to (see
// profile.go): the simulator's packages, sim.Group split out of sim,
// "other" for the remaining internal packages and "runtime" for samples
// with no internal frame at all.
var cpuLayers = []string{
	"sim", "group", "network", "comco", "kernel", "nti", "utcsu", "oscillator",
	"clocksync", "interval", "discipline", "service", "adversary", "telemetry",
	"metrics", "cluster", "harness", "gps", "timefmt", "other", "runtime",
}

// perLayer are the traced run's metrics, named <layer>.<metric>. A
// metric a workload never exercises reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		d("sim.events_fired", "count", "lower"),
		d("sim.events_per_sim_s", "1/sim-s", "lower"),
		d("sim.cancel_ratio", "ratio", "lower"),
		d("sim.queue_depth_hi", "count", "lower"),
		d("sim.ns_per_event", "ns", "lower"),
		d("sim.probe_at_fire_ns", "ns", "lower"),
		d("sim.probe_at_fire_allocs", "allocs/op", "lower"),
		d("group.windows", "count", "lower"),
		d("group.events_per_window", "count", "higher"),
		d("group.posts_flushed", "count", "lower"),
		d("group.imbalance_hi", "ratio", "lower"),
		d("network.frames_sent", "count", "lower"),
		d("network.loss_ratio", "ratio", "lower"),
		d("network.contended", "count", "lower"),
		d("network.wan_tx", "count", "lower"),
		d("network.relay_fwd", "count", "lower"),
		d("network.probe_send_ns", "ns", "lower"),
		d("network.probe_send_allocs", "allocs/op", "lower"),
		d("comco.rx_frames", "count", "lower"),
		d("comco.tx_frames", "count", "lower"),
		d("kernel.ci_delivered", "count", "lower"),
		d("kernel.overruns", "count", "lower"),
		d("sync.rounds", "count", "lower"),
		d("sync.convergence_failed_ratio", "ratio", "lower"),
		d("sync.csp_use", "ratio", "higher"),
		d("sync.sources_rejected", "count", "lower"),
		d("interval.probe_marzullo_ns", "ns", "lower"),
		d("interval.probe_marzullo_allocs", "allocs/op", "lower"),
		d("svc.queries_per_sim_s", "1/sim-s", "higher"),
		d("svc.served_p99_err_us", "us", "lower"),
		d("service.report_ms", "ms", "lower"),
		d("service.probe_addn_ns", "ns", "lower"),
		d("service.probe_addn_allocs", "allocs/op", "lower"),
		d("adv.lies_told", "count", "lower"),
		d("telemetry.capture_us", "us", "lower"),
		d("metrics.snapshot_us", "us", "lower"),
		d("metrics.precision_us", "us", "lower"),
		d("cluster.new_ms", "ms", "lower"),
		d("cluster.measure_delay_ms", "ms", "lower"),
		d("cluster.step_ms_p50", "ms", "lower"),
		d("cluster.step_ms_tail", "ms", "lower"),
		d("cluster.step_tail_pct", "%", "higher"),
		d("cluster.step_samples", "count", "higher"),
		d("harness.cell_wall_s_p50", "s", "lower"),
		d("harness.cell_wall_s_max", "s", "lower"),
		d("harness.worker_util", "ratio", "higher"),
		d("harness.cells_per_s", "1/s", "higher"),
		d("runtime.gc_cycles", "count", "lower"),
		d("runtime.gc_pause_ms", "ms", "lower"),
		d("runtime.mallocs_per_sim_s", "1/sim-s", "lower"),
		d("trace.overhead", "ratio", "lower"),
	}
	for _, l := range cpuLayers {
		defs = append(defs, d(l+".cpu_share", "share", "lower"))
	}
	return defs
}

// summary is a metric over the timed reps of one run: the median with
// its quartiles and the sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(unit string, xs []float64) summary {
	return summary{Value: quantile(xs, 0.5), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// quantile returns the p-quantile of xs by the exclusive method of
// Python's statistics.quantiles (position p·(n+1) in the sorted data,
// linearly interpolated), clamped to the sample range. It is NaN for no
// samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)+1)
	if h <= 1 {
		return s[0]
	}
	if h >= float64(len(s)) {
		return s[len(s)-1]
	}
	i := int(h)
	return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile returns the highest ladder percentile with at least
// ten samples beyond it, and the value there; ok is false when xs has
// fewer than twenty samples.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, q := range tailLadder {
		if float64(len(xs))*(1-q) >= 10-1e-9 {
			return q, quantile(xs, q), true
		}
	}
	return 0, 0, false
}
