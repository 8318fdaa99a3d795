package report

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/golden"
	"ntisim/internal/harness"
	"ntisim/internal/stats"
)

// fixtureResults is a hand-built 2-axis, 2-seed campaign (4 points ×
// 2 seeds) with known values, grid (seed-major) order.
func fixtureResults() []harness.Result {
	var out []harness.Result
	cell := 0
	for _, seed := range []uint64{100, 101} {
		for _, n := range []int{2, 8} {
			for _, load := range []string{"0", "0.3"} {
				r := harness.Result{
					Cell:  cell,
					Label: "n=" + map[int]string{2: "2", 8: "8"}[n] + ",load=" + load + "%",
					Seed:  seed,
					Params: map[string]string{
						"nodes": map[int]string{2: "2", 8: "8"}[n],
						"load":  load,
					},
					Samples: 30,
				}
				base := 1e-6 * float64(n) / 2
				if load != "0" {
					base *= 1.5
				}
				jitter := 1e-8 * float64(seed-100+1)
				r.Precision.N = 30
				r.Precision.Mean = base + jitter
				r.Precision.Max = 2*base + jitter
				r.Accuracy.Max = 3*base + jitter
				r.Width.Mean = 4 * base
				out = append(out, r)
				cell++
			}
		}
	}
	return out
}

// TestGenerateGolden pins the full Markdown+SVG report bytes for the
// fixture campaign. Regenerate intentionally with:
//
//	go test ./internal/report -run Golden -update
func TestGenerateGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, "fixture", fixtureResults(), stats.Options{}); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "fixture.report.golden.md"), buf.Bytes())
}

// The same inputs must always produce the same bytes (bootstrap RNG is
// seeded from the cells, not the clock).
func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Generate(&a, "x", fixtureResults(), stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Generate(&b, "x", fixtureResults(), stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated Generate calls differ")
	}
}

func TestGenerateContent(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, "fixture", fixtureResults(), stats.Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Campaign report — fixture",
		"8 cells · 4 points × 2 seeds (100, 101)",
		"## Aggregate statistics",
		"## Cross-point comparison (Welch t, 95%)",
		"## Precision vs load",
		"## Precision vs nodes",
		"<svg xmlns",
		"| n=2,load=0% | 2 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "+Inf") {
		t.Error("report contains unformatted NaN/Inf")
	}
	// Two numeric axes → two charts.
	if n := strings.Count(out, "<svg"); n != 2 {
		t.Errorf("charts = %d, want 2", n)
	}
}

// Errored cells must be reported, not aggregated.
func TestGenerateWithErrors(t *testing.T) {
	rs := fixtureResults()
	rs[0].Err = "panic: boom"
	var buf bytes.Buffer
	if err := Generate(&buf, "e", rs, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "**1 errored**") || !strings.Contains(buf.String(), "(1 errored)") {
		t.Errorf("errored cell not surfaced:\n%.400s", buf.String())
	}

	// With every cell errored no point has a precision estimate, so no
	// axis gets a precision chart, empty or not.
	for i := range rs {
		rs[i].Err = "panic: boom"
	}
	buf.Reset()
	if err := Generate(&buf, "e", rs, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "**8 errored**") || strings.Contains(out, "## Precision vs") {
		t.Errorf("all-errored campaign: want 8 errored cells and no precision chart:\n%.600s", out)
	}
}

// TestJSONLRoundTrip: a report generated from the JSONL artifact must
// match one generated from the in-memory results.
func TestJSONLRoundTrip(t *testing.T) {
	spec := harness.Spec{
		Name:         "rt",
		Base:         cluster.Defaults(2, 1),
		Points:       harness.NodesAxis(2, 3).Points,
		Seeds:        []uint64{7, 8},
		WarmupS:      2,
		WindowS:      6,
		SampleEveryS: 1,
		DelayProbes:  4,
		Workers:      4,
	}
	camp := harness.Run(spec)
	dir := t.TempDir()
	if _, err := camp.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	paths, err := FindJSONL(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("FindJSONL = %v, %v", paths, err)
	}
	loaded, err := LoadJSONL(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(camp.Results) {
		t.Fatalf("loaded %d results, want %d", len(loaded), len(camp.Results))
	}
	var fromMem, fromDisk bytes.Buffer
	if err := Generate(&fromMem, "rt", camp.Results, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Generate(&fromDisk, "rt", loaded, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromMem.Bytes(), fromDisk.Bytes()) {
		t.Fatal("report from JSONL differs from report from memory")
	}
}

// TestWorkerCountDeterminism: the acceptance property — reports over
// the same spec are byte-identical for 1 and N workers.
func TestWorkerCountDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		spec := harness.Spec{
			Name:         "wd",
			Base:         cluster.Defaults(2, 1),
			Points:       harness.NodesAxis(2, 4).Points,
			Seeds:        []uint64{5, 6},
			WarmupS:      2,
			WindowS:      6,
			SampleEveryS: 1,
			DelayProbes:  4,
			Workers:      workers,
		}
		var buf bytes.Buffer
		if err := Generate(&buf, "wd", harness.Run(spec).Results, stats.Options{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Fatal("report differs between 1 and 4 workers")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 10, 6)
	if len(ticks) < 4 || ticks[0] != 0 || ticks[len(ticks)-1] != 10 {
		t.Errorf("ticks(0,10) = %v", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("ticks not increasing: %v", ticks)
		}
	}
	if got := niceTicks(5, 5, 6); len(got) != 1 {
		t.Errorf("degenerate ticks = %v", got)
	}
}

func TestNumericAxes(t *testing.T) {
	agg := stats.Aggregate(fixtureResults(), stats.Options{Bootstrap: -1})
	axes := numericAxes(agg)
	if len(axes) != 2 || axes[0] != "load" || axes[1] != "nodes" {
		t.Errorf("axes = %v, want [load nodes]", axes)
	}
}

// TestTimelineSection: results carrying Spec.Timeline data render a
// Timelines section with one precision chart per point and — when any
// external reference CSPs were rejected (the GPS fault signature) — a
// cumulative-rejection chart; results without timelines render nothing
// extra, keeping pre-timeline reports byte-identical.
func TestTimelineSection(t *testing.T) {
	rs := fixtureResults()
	var plain bytes.Buffer
	if err := Generate(&plain, "tl", rs, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "## Timelines") {
		t.Fatal("Timelines section rendered without timeline data")
	}

	// Attach a timeline with a mid-window fault to the two seeds of one
	// point: rejections start at t=4 (onset) and stop at t=8 (recovery).
	for i := range rs {
		if rs[i].Label != "n=2,load=0%" {
			continue
		}
		var rej uint64
		for s := 0; s <= 10; s++ {
			tt := float64(s)
			if tt >= 4 && tt < 8 {
				rej++
			}
			rs[i].Timeline = append(rs[i].Timeline, harness.TimelinePoint{
				T:           tt,
				PrecisionS:  1e-6 + 1e-7*tt,
				MaxAbsOffS:  2e-6,
				Contained:   true,
				ExtRejected: rej,
			})
		}
	}
	var buf bytes.Buffer
	if err := Generate(&buf, "tl", rs, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Timelines",
		"### n=2,load=0%",
		"precision over time — n=2,load=0%",
		"external rejections — n=2,load=0%",
		"seed 100",
		"seed 101",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline report missing %q", want)
		}
	}
	// Only the point with timeline data gets a subsection.
	if n := strings.Count(out, "### "); n != 1 {
		t.Errorf("timeline subsections = %d, want 1", n)
	}
	// The section is deterministic like everything else.
	var again bytes.Buffer
	if err := Generate(&again, "tl", rs, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("timeline rendering not deterministic")
	}
}

// disciplineResults builds a 2-discipline × 2-fault fixture with known
// ordering: kalman strictly beats interval on precision.
func disciplineResults() []harness.Result {
	var out []harness.Result
	cell := 0
	for _, disc := range []string{"interval", "kalman"} {
		for _, fault := range []string{"none", "offset"} {
			r := harness.Result{
				Cell:    cell,
				Label:   "disc=" + disc + ",fault=" + fault,
				Seed:    1,
				Params:  map[string]string{"discipline": disc, "fault": fault},
				Samples: 30,
			}
			base := 2e-6
			if disc == "kalman" {
				base = 1e-6
			}
			if fault != "none" {
				base *= 1.5
			}
			r.Precision.N = 30
			r.Precision.Mean = base
			r.Precision.Max = 2 * base
			r.Accuracy.Max = 3 * base
			r.Width.Mean = 4 * base
			out = append(out, r)
			cell++
		}
	}
	return out
}

// TestDisciplineRanking: campaigns with a discipline axis get the
// head-to-head ranking section, ordered by pooled mean precision.
func TestDisciplineRanking(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, "d", disciplineResults(), stats.Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## Discipline ranking") {
		t.Fatalf("ranking section missing:\n%.600s", out)
	}
	k := strings.Index(out, "| 1 | kalman |")
	i := strings.Index(out, "| 2 | interval |")
	if k < 0 || i < 0 || k > i {
		t.Errorf("ranking order wrong (kalman@%d interval@%d):\n%.1200s", k, i, out)
	}
}

// TestDisciplineRankingSkipped: no discipline axis (or a single
// discipline) must leave the report untouched — byte-compatibility of
// the smoke golden depends on it.
func TestDisciplineRankingSkipped(t *testing.T) {
	var plain bytes.Buffer
	if err := Generate(&plain, "p", fixtureResults(), stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "Discipline ranking") {
		t.Error("ranking section appeared without a discipline axis")
	}
	single := disciplineResults()[:2] // interval only
	var buf bytes.Buffer
	if err := Generate(&buf, "s", single, stats.Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Discipline ranking") {
		t.Error("ranking section appeared for a single discipline")
	}
}
