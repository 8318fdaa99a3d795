package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "nope"}, "valid: lan-32|wol-512x16|serve-16x4|campaign-byz"},
		{[]string{"-trace", "2"}, "Usage"},
		{[]string{"-seconds", "0"}, "Usage"},
		{[]string{"-compare", "only-one.jsonl"}, "two ledgers"},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), tc.want) || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q", tc.args, code, out.String(), errOut.String(), tc.want)
		}
	}
}

// TestCompareLedgers round-trips two ledgers through appendLedger and
// -compare: a change that is 10% faster on every seed reads "better".
func TestCompareLedgers(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")
	for i := 0; i < 10; i++ {
		for path, rate := range map[string]float64{parent: 100 + float64(i%3), change: 110 + float64(i%3)} {
			r := runResult{Workload: "lan-32", Seed: uint64(i), Metrics: map[string]summary{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = summary{Value: 1, Unit: d.Unit}
			}
			r.Metrics["sim_s_per_s"] = summary{Value: rate, Unit: "sim-s/s"}
			if err := appendLedger(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out, errOut strings.Builder
	if code := run([]string{"-compare", parent, change}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var row string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "lan-32") && strings.Contains(line, "sim_s_per_s") {
			row = line
		}
	}
	if !strings.Contains(row, "10/10") || !strings.Contains(row, "better") || !strings.Contains(row, "(101 sim-s/s)") {
		t.Errorf("sim_s_per_s row = %q, want 10/10 wins, better, and the parent median as base", row)
	}
}
