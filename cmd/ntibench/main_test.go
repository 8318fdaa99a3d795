package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seed1998.golden.txt from this run")

// TestSuiteClaimsAtSeed1998 runs E1…E15 at the seed EXPERIMENTS.md
// quotes and requires every claim to hold. The experiments package's
// own tests check the claims at another seed; this one keeps the
// published numbers honest. It also byte-compares the printed tables
// with testdata/seed1998.golden.txt, the only golden that builds a WAN
// path, an NTP client, a counter clock or an ideal-oscillator cluster.
// Regenerate intentionally with:
//
//	go test ./cmd/ntibench -run SuiteClaimsAtSeed1998 -update
func TestSuiteClaimsAtSeed1998(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "1998"}, &stdout, &stderr)
	if code != 0 {
		var failed []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasSuffix(line, "FAILED") {
				failed = append(failed, line)
			}
		}
		t.Fatalf("exit %d: %s%s", code, stderr.String(), strings.Join(failed, "\n"))
	}
	if want := "all 15 experiments reproduce the paper's claims (seed 1998)"; !strings.Contains(stdout.String(), want) {
		t.Errorf("missing summary line %q", want)
	}
	golden := filepath.Join("testdata", "seed1998.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("output differs from %s: %s (regenerate with -update if intentional)", golden, firstDiff(got, want))
	}
}

// firstDiff describes where two outputs first differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n--- got ---\n%.300s\n--- want ---\n%.300s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d bytes, want %d", len(got), len(want))
}

func TestListPrintsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(runners) || len(runners) != 15 {
		t.Fatalf("-list printed %d lines for %d experiments, want 15:\n%s", len(lines), len(runners), stdout.String())
	}
	for i, line := range lines {
		if id := strings.Fields(line)[0]; id != runners[i].id {
			t.Errorf("line %d lists %q, want %q", i, id, runners[i].id)
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"E99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "use -list") {
		t.Errorf("stderr = %q, want the -list hint", stderr.String())
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
