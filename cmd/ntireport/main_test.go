package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntisim/internal/golden"
)

// smokeJSONL is the committed 3-seed smoke campaign artifact that
// nticampaign's TestCampaignGoldens pins.
var smokeJSONL = filepath.Join("..", "nticampaign", "testdata", "campaign-smoke.jsonl")

const smokeReport = "testdata/smoke.report.golden.md"

func runReport(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestReportGolden pins the whole report pipeline (JSONL → stats →
// Markdown+SVG) byte-for-byte on the smoke artifact. Regenerate
// intentionally with:
//
//	go test ./cmd/ntireport -run ReportGolden -update
func TestReportGolden(t *testing.T) {
	code, stdout, stderr := runReport("-in", smokeJSONL)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	golden.Check(t, smokeReport, []byte(stdout))
}

// TestDirSkipsAuxiliaryArtifacts: a campaign directory also holds the
// telemetry and per-cell trace streams; only the result artifact is a
// campaign, so the directory renders the same single report as the file.
func TestDirSkipsAuxiliaryArtifacts(t *testing.T) {
	dir := t.TempDir()
	body, err := os.ReadFile(smokeJSONL)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"campaign-smoke.jsonl":                string(body),
		"campaign-smoke.telemetry.jsonl":      `{"cell":0,"t":10,"counters":{"sync.rounds":10}}` + "\n",
		"campaign-smoke.cell-000.trace.jsonl": `{"seq":0,"t":1,"k":"round-start","node":0,"a":1}` + "\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr := runReport("-in", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if n := strings.Count(stdout, "# Campaign report — "); n != 1 {
		t.Fatalf("%d report sections, want 1:\n%.2000s", n, stdout)
	}
	want, err := os.ReadFile(smokeReport)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Fatal("directory report differs from the single-artifact golden")
	}
}

func TestMissingInExits2(t *testing.T) {
	code, _, stderr := runReport()
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "-in is required") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestEmptyDirExits1(t *testing.T) {
	code, _, stderr := runReport("-in", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "no *.jsonl") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestBadFlagExits2(t *testing.T) {
	code, _, stderr := runReport("-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr == "" {
		t.Error("bad flag printed no usage")
	}
}
