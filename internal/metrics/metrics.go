// Package metrics provides the measurement machinery of the evaluation
// harness: precision/accuracy sampling via UTCSU snapshots (the SNU's
// purpose, paper §3.3), ε estimation, and summary statistics formatted
// like the experiment tables in EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series accumulates scalar samples.
//
// Defined behaviour at the edges, relied on by stats/report consumers:
// an empty series returns 0 from every statistic (Min, Max, Mean,
// Stddev, Percentile, Range); a single-sample series returns that
// sample from Min, Max, Mean and every Percentile, and 0 from Stddev
// and Range. Statistics never panic and never return NaN.
type Series struct {
	vals   []float64
	sorted bool
}

// Add appends a sample. Adding invalidates the sorted cache, so Add
// and order-statistic calls may interleave freely — the next
// Min/Max/Percentile re-sorts once and sees every sample added so far.
func (s *Series) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Grow pre-allocates capacity for at least n further samples, so a
// caller that knows its sample budget up front (the campaign loop
// derives it from the configured window and sampling period) pays one
// allocation instead of the append doubling ladder.
func (s *Series) Grow(n int) {
	if n <= 0 || cap(s.vals)-len(s.vals) >= n {
		return
	}
	vals := make([]float64, len(s.vals), len(s.vals)+n)
	copy(vals, s.vals)
	s.vals = vals
}

// Reset empties the series while keeping its capacity, so per-iteration
// scratch series can be reused without reallocating.
func (s *Series) Reset() {
	s.vals = s.vals[:0]
	s.sorted = false
}

// N returns the sample count.
func (s *Series) N() int { return len(s.vals) }

// sortNow sorts the sample slice in place once; Min/Max/Percentile all
// read from the sorted slice instead of re-scanning per call.
func (s *Series) sortNow() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Min returns the smallest sample (0 when empty).
func (s *Series) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sortNow()
	return s.vals[0]
}

// Max returns the largest sample (0 when empty).
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sortNow()
	return s.vals[len(s.vals)-1]
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Stddev returns the population standard deviation (n denominator;
// 0 when the series is empty or has a single sample).
func (s *Series) Stddev() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.vals {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Range returns Max-Min: the spread, which for stamp-gap series is ε.
// It is 0 for empty and single-sample series.
func (s *Series) Range() float64 { return s.Max() - s.Min() }

// Percentile returns the p-quantile (0 <= p <= 1) by nearest-rank on
// the sorted samples: index round(p·(n−1)). The empty series returns
// 0, a single sample is every quantile of itself, and p outside [0,1]
// clamps to the extreme samples rather than erroring.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.sortNow()
	return s.vals[NearestRank(p, n)]
}

// NearestRank maps quantile p to an index into n sorted values:
// round(p·(n−1)), clamped to [0, n−1]. It is the one nearest-rank rule
// behind Percentile, the stats estimates and the trace hop quantiles.
func NearestRank(p float64, n int) int {
	i := int(p*float64(n-1) + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// SeriesStats is a serializable summary of a Series. All values are in
// the series' native unit (seconds for the harness' time series); JSON
// consumers convert, rather than parsing pre-formatted µs strings.
type SeriesStats struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
	Range  float64 `json:"range"`
}

// Stats computes the summary once (sorting at most once).
func (s *Series) Stats() SeriesStats {
	return SeriesStats{
		N:      s.N(),
		Min:    s.Min(),
		Mean:   s.Mean(),
		Stddev: s.Stddev(),
		P50:    s.Percentile(0.50),
		P90:    s.Percentile(0.90),
		P99:    s.Percentile(0.99),
		Max:    s.Max(),
		Range:  s.Range(),
	}
}

// ClusterSample is one simultaneous observation of every node's clock,
// taken through the SNU snapshot path.
type ClusterSample struct {
	TrueTime float64
	// Offsets[i] = C_i(t) − t in seconds.
	Offsets []float64
	// Precision is max_{p,q} |C_p − C_q|.
	Precision float64
	// MaxAbsOffset is max_p |C_p − t| (the worst accuracy).
	MaxAbsOffset float64
	// Contained reports whether every node's accuracy interval contained
	// real time (requirement (A) of paper §2).
	Contained bool
}

// Snapshotter is anything that can report (clock−true, alpha bounds) —
// satisfied by an adapter over utcsu.Snapshot in package cluster.
type Snapshotter interface {
	// OffsetAndBounds returns the clock's offset from true time and the
	// real-time edges of its accuracy interval, all in seconds relative
	// to true time (edges negative/positive around zero mean containment).
	OffsetAndBounds() (offset, loEdge, hiEdge float64)
}

// Sample collects a simultaneous cluster observation.
func Sample(trueTime float64, nodes []Snapshotter) ClusterSample {
	cs := ClusterSample{TrueTime: trueTime, Contained: true}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, n := range nodes {
		off, le, he := n.OffsetAndBounds()
		cs.Offsets = append(cs.Offsets, off)
		lo = math.Min(lo, off)
		hi = math.Max(hi, off)
		cs.MaxAbsOffset = math.Max(cs.MaxAbsOffset, math.Abs(off))
		if le > 0 || he < 0 {
			cs.Contained = false
		}
	}
	if len(nodes) > 1 {
		cs.Precision = hi - lo
	}
	return cs
}

// Table renders experiment tables with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// Us formats seconds as microseconds with 3 decimals.
func Us(s float64) string { return fmt.Sprintf("%.3f", s*1e6) }

// Ms formats seconds as milliseconds with 3 decimals.
func Ms(s float64) string { return fmt.Sprintf("%.3f", s*1e3) }
