// Package report renders campaign artifacts into deterministic
// Markdown reports with embedded SVG plots. Input is either the JSONL
// artifact a campaign wrote (LoadJSONL) or in-memory results straight
// from harness.Run; output is a single Markdown document: a per-point
// aggregate table with Student-t and bootstrap confidence intervals,
// a Welch cross-point comparison, and one line/band/scatter chart per
// numeric sweep axis.
//
// Reports carry no wall-clock, hostname, or build metadata and every
// number is formatted with fixed precision, so identical inputs yield
// byte-identical reports — they are golden-gated exactly like campaign
// artifacts (`go test ./cmd/ntireport -run ReportGolden`).
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ntisim/internal/harness"
	"ntisim/internal/metrics"
	"ntisim/internal/stats"
)

// LoadJSONL reads one campaign's results from a JSONL artifact.
func LoadJSONL(path string) ([]harness.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []harness.Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // timelines can make long lines
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r harness.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, len(out)+1, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// FindJSONL lists the <name>.jsonl result artifacts under dir in sorted
// order. The auxiliary streams a campaign writes next to them —
// <name>.telemetry.jsonl, <name>.cell-NNN.trace.jsonl — carry no
// results and are skipped: a result artifact's name has no other dot.
func FindJSONL(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	results := paths[:0]
	for _, p := range paths {
		if !strings.Contains(strings.TrimSuffix(filepath.Base(p), ".jsonl"), ".") {
			results = append(results, p)
		}
	}
	sort.Strings(results)
	return results, nil
}

// us formats seconds as µs with 3 decimals (the report's time unit).
func us(s float64) string { return metrics.Us(s) }

// ci formats a confidence interval in µs.
func ci(lo, hi float64) string { return "[" + us(lo) + ", " + us(hi) + "]" }

// ft formats a t statistic (infinite t — zero-variance exact
// difference — prints as inf).
func ft(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// Generate writes the Markdown report for one campaign's results.
func Generate(w io.Writer, title string, results []harness.Result) error {
	agg := stats.Aggregate(results)
	bw := bufio.NewWriter(w)

	seedSet := map[uint64]bool{}
	errors := 0
	for i := range results {
		seedSet[results[i].Seed] = true
		if results[i].Err != "" {
			errors++
		}
	}
	seeds := make([]uint64, 0, len(seedSet))
	for s := range seedSet {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	fmt.Fprintf(bw, "# Campaign report — %s\n\n", title)
	fmt.Fprintf(bw, "%d cells · %d points × %d seeds", len(results), len(agg), len(seeds))
	if len(seeds) > 0 {
		fmt.Fprintf(bw, " (")
		for i, s := range seeds {
			if i > 0 {
				fmt.Fprintf(bw, ", ")
			}
			fmt.Fprintf(bw, "%d", s)
		}
		fmt.Fprintf(bw, ")")
	}
	if errors > 0 {
		fmt.Fprintf(bw, " · **%d errored**", errors)
	}
	fmt.Fprintf(bw, ". All times in µs.\n\n")

	writeAggregateTable(bw, agg)
	writeHealth(bw, results)
	writeTraitorTolerance(bw, results)
	writeConvergence(bw, agg)
	writeServing(bw, agg)
	writeDisciplineRanking(bw, agg)
	writeComparison(bw, agg)
	writeAxisPlots(bw, agg, precisionPlot)
	writeAxisPlots(bw, agg, servedP99Plot)
	writeTimelines(bw, results)

	return bw.Flush()
}

func writeAggregateTable(w io.Writer, agg []stats.PointStats) {
	fmt.Fprintf(w, "## Aggregate statistics (across seeds)\n\n")
	fmt.Fprintf(w, "Precision is the per-sample max pairwise clock difference; each seed\ncontributes its window mean/max. CIs are 95%% (Student-t and bootstrap\npercentile).\n\n")
	fmt.Fprintf(w, "| point | n | prec mean | t95 CI | boot95 CI | prec worst | worst offset | width ± |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	for _, p := range agg {
		label := p.Label
		if p.Errors > 0 {
			label += fmt.Sprintf(" (%d errored)", p.Errors)
		}
		if p.Precision.N == 0 {
			fmt.Fprintf(w, "| %s | 0 | — | — | — | — | — | — |\n", label)
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %s | %s | %s |\n",
			label, p.Precision.N,
			us(p.Precision.Mean), ci(p.Precision.Lo, p.Precision.Hi),
			ci(p.Precision.BootLo, p.Precision.BootHi),
			us(p.PrecisionWorst.Mean), us(p.Accuracy.Mean), us(p.Width.Mean))
	}
	fmt.Fprintf(w, "\n")
}

// writeHealth lists the cells whose telemetry watchdog tripped. Cells
// without flags are omitted, and campaigns with no flagged cell (or no
// telemetry at all) skip the section entirely, keeping their reports
// byte-identical to before it existed.
func writeHealth(w io.Writer, results []harness.Result) {
	any := false
	for i := range results {
		if len(results[i].Health) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "## Health flags (telemetry watchdog)\n\n")
	fmt.Fprintf(w, "Cells whose runtime-telemetry watchdog tripped at least one rule\n(containment violation, convergence failures, queue-depth runaway, or\na stalled shard). Healthy cells are omitted.\n\n")
	fmt.Fprintf(w, "| cell | point | seed | flags |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	for i := range results {
		r := &results[i]
		if len(r.Health) == 0 {
			continue
		}
		flags := ""
		for j, f := range r.Health {
			if j > 0 {
				flags += ", "
			}
			flags += "`" + f + "`"
		}
		fmt.Fprintf(w, "| %d | %s | %d | %s |\n", r.Cell, r.Label, r.Seed, flags)
	}
	fmt.Fprintf(w, "\n")
}

func writeConvergence(w io.Writer, agg []stats.PointStats) {
	any := false
	for _, p := range agg {
		if p.Convergence.N > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "## Convergence time (precision ≤ %s µs)\n\n", us(stats.ConvergedBelowS))
	fmt.Fprintf(w, "| point | n | mean [s] | t95 CI [s] | min [s] | max [s] |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
	fs := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, p := range agg {
		c := p.Convergence
		if c.N == 0 {
			fmt.Fprintf(w, "| %s | 0 | — | — | — | — |\n", p.Label)
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %s | [%s, %s] | %s | %s |\n",
			p.Label, c.N, fs(c.Mean), fs(c.Lo), fs(c.Hi), fs(c.Min), fs(c.Max))
	}
	fmt.Fprintf(w, "\n")
}

// writeServing reports the served-accuracy percentiles of the client
// population for campaigns that enabled one (cluster.Config.Serving);
// campaigns without serving data skip the section, keeping their
// reports byte-identical to before it existed.
func writeServing(w io.Writer, agg []stats.PointStats) {
	any := false
	for i := range agg {
		if agg[i].HasServing() {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "## Served-accuracy percentiles (client population)\n\n")
	fmt.Fprintf(w, "Each served query samples the responding node's clock error at\nservice time; percentiles are over all queries of the window, then\naveraged across seeds. req/s is served requests per sim-second.\n\n")
	fmt.Fprintf(w, "| point | n | req/s | p50 err | p99 err | p99 boot95 CI | p99.9 err | max err |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	fq := func(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
	for i := range agg {
		p := &agg[i]
		if !p.HasServing() {
			fmt.Fprintf(w, "| %s | 0 | — | — | — | — | — | — |\n", p.Label)
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %s | %s | %s |\n",
			p.Label, p.ServedP99.N, fq(p.ServedQPS.Mean),
			us(p.ServedP50.Mean), us(p.ServedP99.Mean),
			ci(p.ServedP99.BootLo, p.ServedP99.BootHi),
			us(p.ServedP999.Mean), us(p.ServedMax.Max))
	}
	fmt.Fprintf(w, "\n")
}

// writeDisciplineRanking ranks clock disciplines head-to-head when the
// campaign swept a "discipline" axis: every discipline's points are
// pooled (equal weight per point) and ranked on mean precision, with
// accuracy and convergence time alongside. Campaigns with fewer than
// two distinct disciplines skip the section, so reports without the
// axis are byte-identical to before it existed.
func writeDisciplineRanking(w io.Writer, agg []stats.PointStats) {
	type pool struct {
		name      string
		points    int
		precSum   float64
		worstPrec float64
		accSum    float64
		convSum   float64
		convN     int
	}
	pools := map[string]*pool{}
	var order []string
	for _, p := range agg {
		name, ok := p.Params["discipline"]
		if !ok || p.Precision.N == 0 {
			continue
		}
		g := pools[name]
		if g == nil {
			g = &pool{name: name}
			pools[name] = g
			order = append(order, name)
		}
		g.points++
		g.precSum += p.Precision.Mean
		if p.PrecisionWorst.Mean > g.worstPrec {
			g.worstPrec = p.PrecisionWorst.Mean
		}
		g.accSum += p.Accuracy.Mean
		if p.Convergence.N > 0 {
			g.convSum += p.Convergence.Mean
			g.convN++
		}
	}
	if len(pools) < 2 {
		return
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := pools[order[i]], pools[order[j]]
		ma, mb := a.precSum/float64(a.points), b.precSum/float64(b.points)
		if ma != mb {
			return ma < mb
		}
		return a.name < b.name
	})
	fmt.Fprintf(w, "## Discipline ranking\n\n")
	fmt.Fprintf(w, "Every discipline's points (each fault scenario × seed) pooled with\nequal weight per point and ranked on mean precision. Convergence\naverages only the points that reached the threshold (shown as\nreached/total).\n\n")
	fmt.Fprintf(w, "| rank | discipline | points | mean prec | worst prec | mean \\|C−t\\| | conv [s] |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	for i, n := range order {
		g := pools[n]
		conv := "—"
		if g.convN > 0 {
			conv = fmt.Sprintf("%s (%d/%d)",
				strconv.FormatFloat(g.convSum/float64(g.convN), 'f', 2, 64), g.convN, g.points)
		}
		fmt.Fprintf(w, "| %d | %s | %d | %s | %s | %s | %s |\n",
			i+1, g.name, g.points,
			us(g.precSum/float64(g.points)), us(g.worstPrec),
			us(g.accSum/float64(g.points)), conv)
	}
	fmt.Fprintf(w, "\n")
}

func writeComparison(w io.Writer, agg []stats.PointStats) {
	if len(agg) < 2 {
		return
	}
	best := -1
	for i, p := range agg {
		if p.Precision.N == 0 {
			continue
		}
		if best < 0 || p.Precision.Mean < agg[best].Precision.Mean {
			best = i
		}
	}
	if best < 0 {
		return
	}
	fmt.Fprintf(w, "## Cross-point comparison (Welch t, 95%%)\n\n")
	fmt.Fprintf(w, "Reference: `%s` (lowest mean precision, %s µs). A point is\n*distinguishable* when |t| exceeds the Student-t critical value at the\nWelch–Satterthwaite degrees of freedom; single-seed points cannot be\ntested.\n\n", agg[best].Label, us(agg[best].Precision.Mean))
	fmt.Fprintf(w, "| point | Δ mean | t | df | distinguishable? |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	for i, p := range agg {
		if i == best {
			continue
		}
		if p.Precision.N == 0 {
			fmt.Fprintf(w, "| %s | — | — | — | — |\n", p.Label)
			continue
		}
		c := stats.Compare(p.Precision, agg[best].Precision)
		verdict := "no"
		if c.Distinguishable {
			verdict = "**yes**"
		}
		if p.Precision.N < 2 || agg[best].Precision.N < 2 {
			verdict = "n/a (single seed)"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			p.Label, us(c.DeltaMean), ft(c.T), strconv.FormatFloat(c.DF, 'f', 1, 64), verdict)
	}
	fmt.Fprintf(w, "\n")
}

// numericAxes returns the param keys present on every point that parse
// as numbers and take at least two distinct values, in sorted order.
func numericAxes(agg []stats.PointStats) []string {
	if len(agg) == 0 {
		return nil
	}
	var keys []string
	for k := range agg[0].Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		distinct := map[float64]bool{}
		ok := true
		for _, p := range agg {
			v, present := p.Params[k]
			if !present {
				ok = false
				break
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				ok = false
				break
			}
			distinct[f] = true
		}
		if ok && len(distinct) >= 2 {
			out = append(out, k)
		}
	}
	return out
}

// otherSig joins the non-axis params into a stable series name.
func otherSig(params map[string]string, axis string) string {
	var keys []string
	for k := range params {
		if k != axis {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	sig := ""
	for _, k := range keys {
		if sig != "" {
			sig += ","
		}
		sig += k + "=" + params[k]
	}
	return sig
}

// axisPlot names one per-point estimate charted against every numeric
// sweep axis, and the text around its charts.
type axisPlot struct {
	estimate func(*stats.PointStats) stats.Estimate
	heading  string // section "## <heading> vs <axis>"
	caption  string
	title    string // chart "<title> vs <axis>"
	yLabel   string
}

var (
	precisionPlot = axisPlot{
		estimate: func(p *stats.PointStats) stats.Estimate { return p.Precision },
		heading:  "Precision",
		caption:  "Line: mean across seeds. Band: Student-t 95% CI. Dots: per-seed\nwindow means.",
		title:    "precision",
		yLabel:   "precision [µs]",
	}
	servedP99Plot = axisPlot{
		estimate: func(p *stats.PointStats) stats.Estimate { return p.ServedP99 },
		heading:  "Served p99 error",
		caption:  "Line: mean across seeds of the per-seed served p99 client error.\nBand: Student-t 95% CI. Dots: per-seed values.",
		title:    "served p99",
		yLabel:   "served p99 error [µs]",
	}
)

// writeAxisPlots charts pl's estimate against each numeric sweep axis:
// one line (mean), band (Student-t CI) and scatter (per-seed values)
// series per combination of the other params, in µs, over the points
// whose estimate has data. An axis with no such point gets no chart.
func writeAxisPlots(w io.Writer, agg []stats.PointStats, pl axisPlot) {
	for _, axis := range numericAxes(agg) {
		names := []string{}
		series := map[string]*plotSeries{}
		for i := range agg {
			p := &agg[i]
			e := pl.estimate(p)
			if e.N == 0 {
				continue
			}
			x, _ := strconv.ParseFloat(p.Params[axis], 64)
			name := otherSig(p.Params, axis)
			if name == "" {
				name = "all points"
			}
			s, ok := series[name]
			if !ok {
				s = &plotSeries{Name: name}
				series[name] = s
				names = append(names, name)
			}
			s.Points = append(s.Points, plotPoint{X: x, Y: e.Mean * 1e6, Lo: e.Lo * 1e6, Hi: e.Hi * 1e6})
			for _, v := range e.Values {
				s.Scatter = append(s.Scatter, xy{X: x, Y: v * 1e6})
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		var ss []plotSeries
		for _, n := range names {
			s := series[n]
			sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].X < s.Points[j].X })
			sort.Slice(s.Scatter, func(i, j int) bool {
				if s.Scatter[i].X != s.Scatter[j].X {
					return s.Scatter[i].X < s.Scatter[j].X
				}
				return s.Scatter[i].Y < s.Scatter[j].Y
			})
			ss = append(ss, *s)
		}
		fmt.Fprintf(w, "## %s vs %s\n\n%s\n\n", pl.heading, axis, pl.caption)
		fmt.Fprintf(w, "%s\n\n", renderSVG(pl.title+" vs "+axis, axis, pl.yLabel, ss))
	}
}
