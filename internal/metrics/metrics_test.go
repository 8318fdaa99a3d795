package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-3.875) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Range() != 8 {
		t.Errorf("range = %v", s.Range())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Stddev() != 0 || s.Percentile(0.5) != 0 {
		t.Error("empty series should return zeros")
	}
	// Every quantile of the empty series is 0, including the clamped
	// out-of-range ones, and Range/Stats stay zero too.
	for _, p := range []float64{-1, 0, 0.25, 1, 2} {
		if s.Percentile(p) != 0 {
			t.Errorf("empty Percentile(%g) = %g, want 0", p, s.Percentile(p))
		}
	}
	if s.Range() != 0 {
		t.Errorf("empty Range = %g", s.Range())
	}
	if st := s.Stats(); st != (SeriesStats{}) {
		t.Errorf("empty Stats = %+v, want zero value", st)
	}
}

// A single sample is its own min, max, mean and every quantile, with
// zero dispersion — the degenerate case stats.Describe builds on.
func TestSeriesSingleSample(t *testing.T) {
	var s Series
	s.Add(3.5e-6)
	if s.N() != 1 || s.Min() != 3.5e-6 || s.Max() != 3.5e-6 || s.Mean() != 3.5e-6 {
		t.Fatalf("single-sample accessors: min=%g max=%g mean=%g", s.Min(), s.Max(), s.Mean())
	}
	for _, p := range []float64{-0.5, 0, 0.25, 0.5, 0.99, 1, 1.5} {
		if got := s.Percentile(p); got != 3.5e-6 {
			t.Errorf("Percentile(%g) = %g, want the sample", p, got)
		}
	}
	if s.Stddev() != 0 || s.Range() != 0 {
		t.Errorf("single-sample dispersion: stddev=%g range=%g, want 0", s.Stddev(), s.Range())
	}
	st := s.Stats()
	if st.N != 1 || st.Min != 3.5e-6 || st.P50 != 3.5e-6 || st.P99 != 3.5e-6 || st.Max != 3.5e-6 {
		t.Errorf("single-sample Stats = %+v", st)
	}
}

// Interleaving Add with order statistics must re-trigger the
// sort-once path each time: every read sees all samples added so far,
// and earlier sorted snapshots never leak stale answers.
func TestSeriesInterleavedAddAndQuantiles(t *testing.T) {
	var s Series
	oracle := func(p float64, want float64) {
		t.Helper()
		if got := s.Percentile(p); got != want {
			t.Errorf("after %d adds: Percentile(%g) = %g, want %g", s.N(), p, got, want)
		}
	}
	s.Add(5)
	oracle(0.5, 5) // sorts {5}
	s.Add(1)
	oracle(0, 1) // re-sorts {1,5}
	oracle(1, 5)
	s.Add(3)
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
	oracle(0.5, 3) // re-sorts {1,3,5}
	s.Add(0)       // new minimum after a quantile call
	oracle(0, 0)
	s.Add(9) // new maximum after a quantile call
	oracle(1, 9)
	oracle(0.5, 3)
	if s.Mean() != (5+1+3+0+9)/5.0 {
		t.Errorf("mean = %g", s.Mean())
	}
	// Stats after the interleaving agrees with the accessors.
	st := s.Stats()
	if st.Min != 0 || st.Max != 9 || st.P50 != 3 || st.N != 5 {
		t.Errorf("Stats after interleaving = %+v", st)
	}
}

func TestSeriesPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := s.Percentile(1); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := s.Percentile(0.5); math.Abs(p-50) > 1.5 {
		t.Errorf("p50 = %v", p)
	}
	// Adding after sorting must still work.
	s.Add(1000)
	if s.Percentile(1) != 1000 {
		t.Error("percentile stale after Add")
	}
}

func TestSeriesStddev(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if math.Abs(s.Stddev()-2) > 1e-12 {
		t.Errorf("stddev = %v", s.Stddev())
	}
}

func TestSeriesGrowAllocFree(t *testing.T) {
	const n, runs = 1024, 10
	var s Series
	s.Grow(n * (runs + 1)) // AllocsPerRun adds one warm-up run
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < n; i++ {
			s.Add(float64(i))
		}
	})
	if allocs != 0 {
		t.Errorf("pre-sized Add allocates %.2f/op, want 0", allocs)
	}
}

func TestSeriesGrowPreserves(t *testing.T) {
	var s Series
	s.Add(2)
	s.Add(1)
	s.Grow(100)
	if s.N() != 2 || s.Min() != 1 || s.Max() != 2 {
		t.Fatalf("Grow lost samples: n=%d min=%g max=%g", s.N(), s.Min(), s.Max())
	}
	s.Grow(0)
	s.Grow(-5)
	s.Add(3)
	if s.Max() != 3 {
		t.Fatalf("Add after Grow: max=%g", s.Max())
	}
}

func TestTable(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1.5")
	tb.AddRow("longer-name", "2")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/separator malformed:\n%s", out)
	}
	if !strings.Contains(lines[3], "longer-name") {
		t.Errorf("row missing:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if Us(1.5e-6) != "1.500" {
		t.Errorf("Us = %q", Us(1.5e-6))
	}
	if Ms(2.5e-3) != "2.500" {
		t.Errorf("Ms = %q", Ms(2.5e-3))
	}
}

// Property: Min <= Mean <= Max and Percentile is monotone.
func TestQuickSeriesInvariants(t *testing.T) {
	f := func(raw []int32) bool {
		var s Series
		for _, v := range raw {
			s.Add(float64(v) * 1e-6)
		}
		if s.N() == 0 {
			return true
		}
		if s.Min() > s.Mean() || s.Mean() > s.Max() {
			return false
		}
		return s.Percentile(0.25) <= s.Percentile(0.75)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSeriesStatsAndJSON: the serializable summary matches the scalar
// accessors and round-trips through JSON without lossy formatting.
func TestSeriesStatsAndJSON(t *testing.T) {
	var s Series
	for _, v := range []float64{3e-6, 1e-6, 2e-6, 5e-6, 4e-6} {
		s.Add(v)
	}
	st := s.Stats()
	if st.N != 5 || st.Min != 1e-6 || st.Max != 5e-6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Range != st.Max-st.Min {
		t.Errorf("range = %g", st.Range)
	}
	if st.Mean != s.Mean() || st.P99 != s.Percentile(0.99) {
		t.Errorf("stats disagree with accessors: %+v", st)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back SeriesStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Errorf("JSON round-trip: got %+v, want %+v", back, st)
	}

	var empty Series
	if es := empty.Stats(); es.N != 0 || es.Min != 0 || es.Max != 0 {
		t.Errorf("empty stats = %+v", es)
	}
}

// Min/Max after Add must reflect the new sample even though earlier
// calls cached a sorted slice.
func TestSeriesSortInvalidation(t *testing.T) {
	var s Series
	s.Add(2)
	s.Add(1)
	if s.Min() != 1 || s.Max() != 2 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
	s.Add(0.5)
	s.Add(3)
	if s.Min() != 0.5 || s.Max() != 3 {
		t.Errorf("after re-add: min/max = %g/%g", s.Min(), s.Max())
	}
}
