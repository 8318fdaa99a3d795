package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/discipline"
	"ntisim/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden files from the -shards 1 run")

// TestCampaignGoldens is the regression gate for every campaign preset
// that pins a result: each row runs its preset at -shards 1 and at
// -shards 4 and byte-compares the named artifacts with testdata/. The
// simulator is deterministic, so any diff is a real behaviour change;
// a diff only at shards=4 breaks the contract that shard-worker count
// is a pure execution knob. Regenerate intentionally with:
//
//	go test ./cmd/nticampaign -run CampaignGoldens -update
func TestCampaignGoldens(t *testing.T) {
	rows := []struct {
		name      string
		args      []string
		artifacts []string
	}{
		// Interval containment and precision of the 4-cell smoke grid
		// under three seeds.
		{"smoke", []string{"-preset", "smoke", "-seeds", "3"},
			[]string{"campaign-smoke.jsonl"}},
		// Every discipline × fault scenario, full-precision per-cell
		// statistics (the JSONL adds 580 KB of timelines).
		{"disciplines", []string{"-preset", "disciplines"},
			[]string{"campaign-disciplines.csv"}},
		// Every GPS fault kind under validation and naive trust: pins that
		// each kind is injected (rejections, or lost containment).
		{"faults", []string{"-preset", "faults"},
			[]string{"campaign-faults.csv"}},
		// Telemetry leaves the result artifact unchanged, so one run
		// gates both.
		{"sharded", []string{"-preset", "sharded", "-telemetry"},
			[]string{"campaign-sharded.jsonl", "campaign-sharded.telemetry.jsonl"}},
		{"serving", []string{"-preset", "serving", "-seeds", "3"},
			[]string{"campaign-serving.jsonl"}},
		{"byzantine", []string{"-preset", "byzantine"},
			[]string{"campaign-byzantine.jsonl"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			// Sequential within a row: with -update the shards=1 run
			// rewrites the goldens the shards=4 run then compares with.
			for _, shards := range []string{"1", "4"} {
				t.Run("shards="+shards, func(t *testing.T) {
					out := t.TempDir()
					args := append([]string{"-q", "-shards", shards, "-out", out}, row.args...)
					var stdout, stderr bytes.Buffer
					if code := run(args, &stdout, &stderr); code != 0 {
						t.Fatalf("nticampaign %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
					}
					for _, name := range row.artifacts {
						got, err := os.ReadFile(filepath.Join(out, name))
						if err != nil {
							t.Fatal(err)
						}
						golden := filepath.Join("testdata", name)
						if *update && shards == "1" {
							if err := os.WriteFile(golden, got, 0o644); err != nil {
								t.Fatal(err)
							}
						}
						want, err := os.ReadFile(golden)
						if err != nil {
							t.Fatalf("%v (regenerate with -update)", err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("%s differs from %s at -shards %s: %s (regenerate with -update if intentional)",
								name, golden, shards, firstDiff(got, want))
						}
					}
				})
			}
		})
	}
}

// firstDiff describes where two artifacts first differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n--- got ---\n%.300s\n--- want ---\n%.300s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d bytes, want %d", len(got), len(want))
}

func runCampaign(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUnknownChoiceExits2 covers the enumerated flags: an unknown value
// is a usage error, and stderr lists every valid choice.
func TestUnknownChoiceExits2(t *testing.T) {
	var presetNames []string
	for n := range presets {
		presetNames = append(presetNames, n)
	}
	cases := []struct {
		flag    string
		choices []string
	}{
		{"-preset", presetNames},
		{"-discipline", discipline.Names()},
		{"-arrival", service.Arrivals()},
	}
	for _, c := range cases {
		code, _, stderr := runCampaign(c.flag, "no-such-choice")
		if code != 2 {
			t.Errorf("%s no-such-choice: exit %d, want 2", c.flag, code)
		}
		for _, want := range c.choices {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s: stderr does not list choice %q: %q", c.flag, want, stderr)
			}
		}
	}
}

// TestPresetGridsAreWellFormed builds every preset's grid without
// running it: each must have points with unique labels whose mutations
// apply to the default configuration, and -list must name it.
func TestPresetGridsAreWellFormed(t *testing.T) {
	code, list, _ := runCampaign("-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for name, p := range presets {
		if !strings.Contains(list, name+" ") {
			t.Errorf("-list does not name preset %q", name)
		}
		pts := p.points()
		if len(pts) == 0 {
			t.Errorf("%s: empty grid", name)
		}
		seen := map[string]bool{}
		for _, pt := range pts {
			if seen[pt.Label] {
				t.Errorf("%s: duplicate point label %q", name, pt.Label)
			}
			seen[pt.Label] = true
			cfg := cluster.Defaults(8, 1)
			if pt.Mutate != nil {
				pt.Mutate(&cfg)
			}
		}
	}
}

// TestSummaryColumns: every table shows containment; external-reference
// counts appear only when some cell had GPS fixes.
func TestSummaryColumns(t *testing.T) {
	for _, c := range []struct {
		preset  string
		wantExt bool
		row     string
	}{
		{"smoke", false, "n=2,load=0%"},
		{"faults", true, "fault=offset/naive-trust"},
	} {
		code, stdout, stderr := runCampaign("-q", "-preset", c.preset, "-window", "2")
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", c.preset, code, stderr)
		}
		header := strings.SplitN(stdout, "\n", 2)[0]
		if !strings.Contains(header, "contained") {
			t.Errorf("%s: header lacks containment: %q", c.preset, header)
		}
		if got := strings.Contains(header, "ext acc/rej"); got != c.wantExt {
			t.Errorf("%s: ext acc/rej column = %v, want %v: %q", c.preset, got, c.wantExt, header)
		}
		if !strings.Contains(stdout, c.row) {
			t.Errorf("%s: no row for %q", c.preset, c.row)
		}
	}
}

func TestOutOfRangeCountExits2(t *testing.T) {
	for _, args := range [][]string{{"-seeds", "0"}, {"-clients", "-1"}} {
		code, _, stderr := runCampaign(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, args[0]) {
			t.Errorf("%v: stderr does not name the flag: %q", args, stderr)
		}
	}
}

func TestTraceWithoutOutExits1(t *testing.T) {
	code, _, stderr := runCampaign("-trace")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "-trace needs -out") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestUnknownRefineAxisExits1(t *testing.T) {
	code, _, stderr := runCampaign("-refine", "no-such-axis=2e-6")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, want := range []string{"no-such-axis", "load", "period", "fosc", "nodes"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not name %q: %q", want, stderr)
		}
	}
}

// TestRefinePrintsCIAndBracket runs a short -refine end to end: one
// seed bisects to adjacent cluster sizes, every row carries its 95% CI
// column, and a bracketed run exits 0; with two seeds a straddling CI
// stops the bisection as noise-limited.
func TestRefinePrintsCIAndBracket(t *testing.T) {
	code, stdout, stderr := runCampaign("-refine", "nodes=1.2e-6", "-window", "10", "-q")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr %q", code, stderr)
	}
	for _, want := range []string{
		"nodes  mean prec [µs]   95% CI [µs]     cells",
		"2      0.092            [0.092, 0.092]  1",
		"crossover of 1.200µs bracketed: nodes ∈ [5, 6] (width 1, tol 0.46875)",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}

	code, stdout, _ = runCampaign("-refine", "nodes=1.2e-6", "-window", "4", "-seeds", "2", "-q")
	if code != 0 || !strings.Contains(stdout, "noise-limited: stopped before tol") {
		t.Errorf("two seeds: exit %d, want 0 and a noise-limited stop:\n%s", code, stdout)
	}
}

func TestBadFlagExits2(t *testing.T) {
	code, _, stderr := runCampaign("-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr == "" {
		t.Error("bad flag printed no usage")
	}
}
