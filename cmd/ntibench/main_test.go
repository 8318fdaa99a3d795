package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntisim/internal/experiments"
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
	if len(lines) != len(experiments.Suite) || len(lines) != 15 {
		t.Fatalf("-list printed %d lines for %d experiments, want 15:\n%s", len(lines), len(experiments.Suite), stdout.String())
	}
	for i, line := range lines {
		if id := strings.Fields(line)[0]; id != experiments.Suite[i].ID {
			t.Errorf("line %d lists %q, want %q", i, id, experiments.Suite[i].ID)
		}
	}
}

// TestJSONTypedClaims: -json prints each claim as an object with a
// known kind, and a single comparison carries got, bound and better.
func TestJSONTypedClaims(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-seed", "1998", "E4", "E10"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var results []struct {
		ID     string
		Claims []map[string]any
	}
	if err := json.Unmarshal(stdout.Bytes(), &results); err != nil {
		t.Fatalf("decode: %v\n%s", err, stdout.String())
	}
	if len(results) != 2 || results[0].ID != "E4" || results[1].ID != "E10" {
		t.Fatalf("got results %+v, want E4 and E10", results)
	}
	claims := map[string]map[string]any{}
	for _, r := range results {
		for _, c := range r.Claims {
			name, _ := c["name"].(string)
			switch experiments.Kind(fmt.Sprint(c["kind"])) {
			case experiments.Invariant, experiments.Statistical, experiments.Shape:
			default:
				t.Errorf("%s %q: unknown kind %v", r.ID, name, c["kind"])
			}
			if _, ok := c["ok"].(bool); !ok {
				t.Errorf("%s %q: no ok", r.ID, name)
			}
			_, hasGot := c["got"]
			_, hasBound := c["bound"]
			_, hasBetter := c["better"]
			if hasGot != hasBetter || hasBound != hasBetter {
				t.Errorf("%s %q: got/bound/better must come together: %v", r.ID, name, c)
			}
			claims[name] = c
		}
	}
	for _, name := range []string{"accuracy intervals always contain real time", "latch never misattributes"} {
		c := claims[name]
		if c == nil || c["kind"] != string(experiments.Invariant) || c["got"] != 0.0 || c["ok"] != true {
			t.Errorf("claim %q = %v, want an invariant that holds with got 0", name, c)
		}
	}
}

// TestExperimentsDocQuotesGolden: the first table under each "### E<n>"
// heading of EXPERIMENTS.md quotes the seed-1998 golden, line by line
// (rows may be left out; the separator rows are).
func TestExperimentsDocQuotesGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	gold, err := os.ReadFile(filepath.Join("testdata", "seed1998.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{} // "E4" -> its printed block
	for _, sec := range strings.Split(string(gold), "== ")[1:] {
		id, _, _ := strings.Cut(sec, ":")
		sections[id] = sec
	}
	quoted := 0
	for _, part := range strings.Split(string(doc), "\n### ")[1:] {
		id := strings.Fields(part)[0]
		if !strings.HasPrefix(id, "E") {
			continue
		}
		sec, ok := sections[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md has a %s section, the golden does not", id)
			continue
		}
		_, block, fenced := strings.Cut(part, "\n```\n")
		if !fenced {
			continue // E9 describes its path in prose
		}
		block, _, _ = strings.Cut(block, "```")
		for _, line := range strings.Split(block, "\n") {
			if line = strings.TrimRight(line, " "); line == "" {
				continue
			}
			quoted++
			if !strings.Contains(sec, line) {
				t.Errorf("EXPERIMENTS.md %s quotes %q, which the seed-1998 golden does not print", id, line)
			}
		}
	}
	if quoted == 0 {
		t.Fatal("found no quoted table in EXPERIMENTS.md")
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
