package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeTrace is the committed ntitrace golden: one CSP's flight through
// the Fig. 3 data path, every flight-path kind included.
var smokeTrace = filepath.Join("..", "ntitrace", "testdata", "smoke.trace.golden.jsonl")

func runFlight(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeTrace writes a trace file into a fresh temp dir.
func writeTrace(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "in.trace.jsonl")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSmokeTracePrintsFlightPath(t *testing.T) {
	code, stdout, stderr := runFlight("-in", smokeTrace)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "flight path (per-hop latency, Fig. 3 stages):") {
		t.Fatalf("no flight-path table in output:\n%s", stdout)
	}
}

func TestMissingInFailsWithHint(t *testing.T) {
	code, _, stderr := runFlight()
	if code == 0 {
		t.Fatal("missing -in exited 0")
	}
	if !strings.Contains(stderr, "-in is required") {
		t.Errorf("no usage hint on stderr: %q", stderr)
	}
}

func TestEmptyTraceFails(t *testing.T) {
	code, _, stderr := runFlight("-in", writeTrace(t, ""))
	if code == 0 {
		t.Fatal("empty trace exited 0")
	}
	if !strings.Contains(stderr, "empty trace") {
		t.Errorf("stderr = %q, want it to say the trace is empty", stderr)
	}
}

func TestTraceWithoutFlightPathNamesItsKinds(t *testing.T) {
	body := `{"seq":0,"t":1,"k":"round-start","node":0,"a":1}
{"seq":1,"t":1.25,"k":"round-update","node":0,"a":1,"b":3}
`
	code, stdout, stderr := runFlight("-in", writeTrace(t, body))
	if code == 0 {
		t.Fatalf("trace without flight-path kinds exited 0:\n%s", stdout)
	}
	for _, k := range []string{"round-start", "round-update"} {
		if !strings.Contains(stderr, k) {
			t.Errorf("stderr does not name carried kind %s: %q", k, stderr)
		}
	}
}

func TestBadFlagExits2(t *testing.T) {
	code, _, stderr := runFlight("-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr == "" {
		t.Error("bad flag printed no usage")
	}
}
