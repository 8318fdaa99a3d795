package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from this run")

// TestJSONGolden pins the -json trace of one CSP's flight through the
// Fig. 3 data path on a two-node system, DMA words included. Any diff
// means the cross-layer event stream (ordering, timing, payloads or
// formatting) changed. Regenerate intentionally with:
//
//	go test ./cmd/ntitrace -run JSONGolden -update
func TestJSONGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "smoke.trace.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("trace differs from golden (regenerate with -update if intentional)\n--- got ---\n%.2000s", stdout.String())
	}
}

// TestProse: the default output walks the flight and ends with the CI
// delivery.
func TestProse(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Contains(stdout.Bytes(), []byte("CI delivery at t=")) {
		t.Fatalf("no CI delivery line in output:\n%s", stdout.String())
	}
}

func TestBadFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Error("bad flag printed no usage")
	}
}
