package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const (
	smoke     = "../../cmd/nticampaign/testdata/campaign-smoke.jsonl"
	faults    = "../../cmd/nticampaign/testdata/campaign-faults.csv"
	telemetry = "../../cmd/nticampaign/testdata/campaign-sharded.telemetry.jsonl"
	trace     = "../../cmd/ntitrace/testdata/smoke.trace.golden.jsonl"
	wiring    = "../../internal/cluster/testdata/wiring.golden.txt"
)

// find returns the 1-based number of the first line of b that contains s.
func find(t *testing.T, b []byte, s string) int {
	t.Helper()
	for i, l := range strings.Split(string(b), "\n") {
		if strings.Contains(l, s) {
			return i + 1
		}
	}
	t.Fatalf("no line contains %q", s)
	return 0
}

// edit returns b with the first match of re on the given line replaced
// by repl (which may refer to submatches as ${1}).
func edit(t *testing.T, b []byte, line int, re, repl string) []byte {
	t.Helper()
	ls := strings.Split(string(b), "\n")
	rx := regexp.MustCompile(re)
	loc := rx.FindStringSubmatchIndex(ls[line-1])
	if loc == nil {
		t.Fatalf("line %d does not match %s: %.200s", line, re, ls[line-1])
	}
	l := ls[line-1]
	ls[line-1] = l[:loc[0]] + string(rx.ExpandString(nil, repl, l, loc)) + l[loc[1]:]
	return []byte(strings.Join(ls, "\n"))
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReportLabels changes one field of a committed golden in memory and
// checks the label the report gives it: engine for the event engine's
// own accounting, model for everything the simulated system computed.
func TestReportLabels(t *testing.T) {
	cases := []struct {
		name, path string
		at         string // a substring of the line to change; "" is line 2
		next       bool   // change the line after it instead
		re, repl   string
		want       string // the report entry, after the file name
	}{
		{"smoke events", smoke, `"events":`, false, `"events":\d+`, `"events":1`,
			"line %d: events [engine]"},
		{"faults events column", faults, "", false, `,272104,`, `,272105,`,
			"line %d: events [engine]"},
		{"telemetry sim counter", telemetry, `"sim.events_fired":`, false,
			`("sim.events_fired":)\d+`, `${1}1`, "line %d: counters.sim.events_fired [engine]"},
		{"telemetry shard gauge", telemetry, `"group.shard_events@1":`, false,
			`("group.shard_events@1":\{"v":\d+,"hi":)\d+`, `${1}1`,
			"line %d: gauges.group.shard_events@1.hi [engine]"},
		{"wiring shard gauge", wiring, `"group.shard_events@0": {`, true, `\d+`, `1`,
			"telemetry.gauges.group.shard_events@0.v [engine]"},
		{"trace seq", trace, "", false, `"seq":\d+`, `"seq":7`, "line %d: seq [engine]"},

		{"smoke precision", smoke, `"events":`, false, `("precision":\{"n":\d+,"min":[^,]*,"mean":)[^,]*`, `${1}1`,
			"line %d: precision.mean [model]"},
		{"telemetry net counter", telemetry, `"net.frames_sent":`, false,
			`("net.frames_sent":)\d+`, `${1}1`, "line %d: counters.net.frames_sent [model]"},
		{"faults precision column", faults, "", false, `^(\d+,[^,]*,\d+,)[^,]*`, `${1}1`,
			"line %d: precision_mean_s [model]"},
		{"wiring records line", wiring, "records shard=0", false, `n=\d+`, `n=1`, "line %d [model]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := read(t, c.path)
			line := 2
			if c.at != "" {
				line = find(t, want, c.at)
			}
			if c.next {
				line++
			}
			got := edit(t, want, line, c.re, c.repl)
			r := report(c.path, got, want)
			entry := filepath.Base(c.path) + " " + strings.ReplaceAll(c.want, "%d", fmt.Sprint(line))
			if !strings.Contains(r, entry+"\n") {
				t.Errorf("report lacks %q:\n%s", entry, r)
			}
			verdict := "1 fields changed, engine-only"
			if strings.HasSuffix(c.want, "[model]") {
				verdict = "1 fields changed, 1 of them model"
			}
			if !strings.Contains(r, verdict) {
				t.Errorf("report lacks %q:\n%s", verdict, r)
			}
		})
	}
}

// TestReportAddedLine: a line count change is a model change, named as
// such, even when the added line repeats an engine-only record.
func TestReportAddedLine(t *testing.T) {
	want := read(t, smoke)
	n := bytes.Count(want, []byte("\n"))
	got := append(append([]byte{}, want...), want[:bytes.IndexByte(want, '\n')+1]...)
	r := report(smoke, got, want)
	entry := fmt.Sprintf("campaign-smoke.jsonl has %d lines, want %d [model]", n+1, n)
	if !strings.Contains(r, entry) || !strings.Contains(r, "1 of them model") {
		t.Errorf("report lacks %q:\n%s", entry, r)
	}
}

// stubTB records what Check reports instead of failing the test.
type stubTB struct {
	testing.TB
	errs, logs []string
}

func (s *stubTB) Helper()                      {}
func (s *stubTB) Errorf(f string, args ...any) { s.errs = append(s.errs, fmt.Sprintf(f, args...)) }
func (s *stubTB) Fatal(args ...any)            { s.errs = append(s.errs, fmt.Sprint(args...)) }
func (s *stubTB) Logf(f string, args ...any)   { s.logs = append(s.logs, fmt.Sprintf(f, args...)) }

// TestCheckFailurePath: a mismatch fails with the golden's path, the
// first differing line (got and want) and the field report; a missing
// golden asks for -update; a match passes.
func TestCheckFailurePath(t *testing.T) {
	want := read(t, smoke)
	path := filepath.Join(t.TempDir(), "campaign-smoke.jsonl")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	line := find(t, want, `"events":`)
	got := edit(t, want, line, `"events":\d+`, `"events":1`)

	var s stubTB
	Check(&s, path, got)
	if len(s.errs) != 1 {
		t.Fatalf("mismatch: %d errors, want 1: %q", len(s.errs), s.errs)
	}
	gotLine := strings.Split(string(got), "\n")[line-1]
	wantLine := strings.Split(string(want), "\n")[line-1]
	for _, part := range []string{
		path + " differs at line " + fmt.Sprint(line),
		"--- got ---\n" + gotLine[:100], "--- want ---\n" + wantLine[:100],
		fmt.Sprintf("campaign-smoke.jsonl line %d: events [engine]", line),
		"engine-only", "regenerate with -update if intentional",
	} {
		if !strings.Contains(s.errs[0], part) {
			t.Errorf("mismatch message lacks %q:\n%s", part, s.errs[0])
		}
	}

	s = stubTB{}
	Check(&s, filepath.Join(t.TempDir(), "missing.txt"), got)
	if len(s.errs) != 1 || !strings.Contains(s.errs[0], "regenerate with -update") {
		t.Errorf("missing golden: errors %q, want one asking to regenerate with -update", s.errs)
	}

	s = stubTB{}
	Check(&s, path, want)
	if len(s.errs) != 0 {
		t.Errorf("match: errors %q", s.errs)
	}
}

// TestCheckUpdate: under -update a differing golden is rewritten and the
// field report logged; an unchanged one is left alone and logged as such.
func TestCheckUpdate(t *testing.T) {
	defer func(old bool) { *update = old }(*update)
	*update = true
	want := read(t, smoke)
	path := filepath.Join(t.TempDir(), "campaign-smoke.jsonl")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got := edit(t, want, 1, `"events":\d+`, `"events":1`)

	var s stubTB
	Check(&s, path, got)
	if len(s.errs) != 0 || len(s.logs) != 1 || !strings.Contains(s.logs[0], "rewritten") ||
		!strings.Contains(s.logs[0], "campaign-smoke.jsonl line 1: events [engine]") {
		t.Errorf("update: errors %q, logs %q", s.errs, s.logs)
	}
	if b := read(t, path); !bytes.Equal(b, got) {
		t.Error("update did not rewrite the golden")
	}

	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	s = stubTB{}
	Check(&s, path, got)
	if len(s.errs) != 0 || len(s.logs) != 1 || !strings.Contains(s.logs[0], "unchanged") {
		t.Errorf("unchanged: errors %q, logs %q", s.errs, s.logs)
	}
	if fi, err := os.Stat(path); err != nil || !fi.ModTime().Equal(old) {
		t.Errorf("unchanged golden was rewritten (%v)", err)
	}
}

// TestReportFormatting: bytes that differ while every parsed value is
// equal (number spelling, key order) are one model "formatting" field.
func TestReportFormatting(t *testing.T) {
	want := read(t, smoke)
	got := edit(t, want, 1, `"sim_s":40.5`, `"sim_s":4.05e1`)
	r := report(smoke, got, want)
	if entry := "campaign-smoke.jsonl line 1: formatting [model]"; !strings.Contains(r, entry) {
		t.Errorf("report lacks %q:\n%s", entry, r)
	}
}
