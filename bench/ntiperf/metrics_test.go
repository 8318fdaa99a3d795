package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// The expectations are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3, 3, 8}, 2.25, 4.25, 7.9375},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize("s", tc.xs)
		if s.Q1 != tc.q1 || s.Value != tc.m || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", tc.xs, s, tc.q1, tc.m, tc.q3)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{19, 0, 0, false},
		{20, 0.5, 10.5, true},
		{30, 0.5, 15.5, true},
		{100, 0.9, 90.9, true},
		{600, 0.95, 570.95, true},
		{1000, 0.99, 990.99, true},
		{10000, 0.999, 9990.999, true},
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || p != tc.p || math.Abs(v-tc.v) > 1e-9 {
			t.Errorf("n=%d: tail = p%v %v ok=%v, want p%v %v ok=%v", tc.n, p, v, ok, tc.p, tc.v, tc.ok)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	rate := metricDef{"sim_s_per_s", "sim-s/s", "higher", 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name        string
		change      []float64
		verdict     string
		withinBound bool
	}{
		{"clear gain", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "better", true},
		{"same", []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, "unresolved", true},
		{"regression", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "worse", false},
	} {
		j := judge(rate, parent, tc.change)
		if j.verdict != tc.verdict || j.withinBound != tc.withinBound || j.pairs != 10 {
			t.Errorf("%s: %+v, want verdict %s within bound %v", tc.name, j, tc.verdict, tc.withinBound)
		}
	}
	// A parent spread wider than the bound cannot show the absence of a
	// regression.
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if j := judge(rate, noisy, parent); j.verdict != "unresolved" || j.withinBound {
		t.Errorf("noisy parent: %+v, want unresolved and not within bound", j)
	}
}
