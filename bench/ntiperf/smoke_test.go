package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"ntisim/internal/harness"
)

// shrink returns w at a tiny length (about 2 sim-s past calibration)
// with no golden.
func shrink(w workload) workload {
	w.golden = ""
	if w.cluster != nil {
		cr := *w.cluster
		cr.warmS, cr.windowS = 1, 2
		w.cluster = &cr
		return w
	}
	spec := w.campaign
	w.campaign = func(seed uint64) harness.Spec {
		s := spec(seed)
		s.WarmupS, s.WindowS = 1, 1
		return s
	}
	return w
}

func checkMetrics(t *testing.T, r runResult, defs []metricDef) {
	t.Helper()
	if !r.Correct {
		t.Errorf("%s: incorrect: %v", r.Workload, r.Problems)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		s, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v, ok=%v", r.Workload, d.Name, s, ok)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	o := options{seconds: 1e-3, setups: 2, probeTime: time.Millisecond, traceDir: t.TempDir()}
	for _, full := range workloads {
		w := shrink(full)
		timed, err := timedRun(w, benchSeed, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, timed, endToEnd)
		for _, d := range endToEnd {
			if timed.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, timed.Metrics[d.Name].Value)
			}
		}
		traced, err := tracedRun(w, benchSeed, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, traced, perLayer)
		if timed.Digest != traced.Digest {
			t.Errorf("%s: digests differ between runs: %s vs %s", w.name, timed.Digest, traced.Digest)
		}
		var sum float64
		for _, l := range cpuLayers {
			sum += traced.Metrics[l+".cpu_share"].Value
		}
		// A timed window of a few milliseconds may fall between two
		// 100 Hz profile samples; then every share is 0.
		if sum != 0 && math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu_share sums to %v, want 1", w.name, sum)
		}
		if _, ok := resultLine([]runResult{timed}); !ok {
			t.Errorf("%s: result line says incorrect", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json
// and this command's tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type file struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds float64     `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	want := file{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultOptions.seconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, wl{w.name, w.why})
	}
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got file
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		js, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the tables; want:\n%s", js)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
}
