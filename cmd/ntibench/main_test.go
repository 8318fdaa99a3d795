package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ntisim/internal/golden"
)

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
	golden.Check(t, filepath.Join("testdata", "seed1998.golden.txt"), stdout.Bytes())
}

// TestOutputIndependentOfWorkers: the suite prints the same bytes from
// one worker as from four, for the experiments that measure through
// harness cells as well as around them.
func TestOutputIndependentOfWorkers(t *testing.T) {
	ids := []string{"E2", "E3", "E5", "E8", "E14"}
	var outs [2]string
	for i, w := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-workers", w}, ids...), &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", w, code, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Fatalf("-workers 1 and -workers 4 print different output:\n--- 1 ---\n%s\n--- 4 ---\n%s", outs[0], outs[1])
	}
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

// TestUnknownExperimentExits2: an argument that names no experiment is
// a usage error even beside valid ones, so a typo cannot shrink the run.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, args := range [][]string{{"E99"}, {"E1", "E99"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), `"E99"`) || !strings.Contains(stderr.String(), "use -list") {
			t.Errorf("%v: stderr = %q, want E99 named and the -list hint", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran experiments:\n%s", args, stdout.String())
		}
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
