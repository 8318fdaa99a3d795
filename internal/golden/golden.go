// Package golden is the test suite's one golden-file mechanism: byte
// equality decides, and a difference is reported field by field, each
// marked engine (event accounting) or model (what the system computed).
package golden

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from this run, logging each changed field")

// Check compares got with the golden file at path. A difference fails tb
// with the first differing line and the field report; under -update it
// rewrites the file and logs the report instead.
func Check(tb testing.TB, path string, got []byte) {
	tb.Helper()
	want, err := os.ReadFile(path)
	switch {
	case err != nil && !(*update && errors.Is(err, fs.ErrNotExist)):
		tb.Errorf("%v (regenerate with -update)", err)
	case err == nil && bytes.Equal(got, want):
		tb.Logf("%s: unchanged", path)
	case !*update:
		tb.Errorf("%s differs at %s%s(regenerate with -update if intentional)",
			path, firstDiff(got, want), report(path, got, want))
	default:
		if err := os.WriteFile(path, got, 0o644); err != nil {
			tb.Fatal(err)
		}
		tb.Logf("%s: rewritten\n%s", path, report(path, got, want))
	}
}

func firstDiff(got, want []byte) string {
	g, w, i := strings.Split(string(got), "\n"), strings.Split(string(want), "\n"), 0
	for i+1 < len(g) && i+1 < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("line %d\n--- got ---\n%.300s\n--- want ---\n%.300s\n", i+1, g[i], w[i])
}

// report names each changed field as "file line N: key.path [label]",
// past 20 entries only paths not listed yet. The label is engine if one
// of its keys is events or seq or names a sim.* or group.* metric, else
// model; keys match whole, since metric names hold dots and shard tags.
func report(path string, got, want []byte) string {
	name, g, w := filepath.Base(path), records(path, got), records(path, want)
	out, total, model, seen := []string(nil), 0, 0, map[string]bool{}
	note := func(where string, keys ...string) {
		label, field := "model", strings.Join(keys, ".")
		for _, k := range keys {
			if k == "events" || k == "seq" || strings.HasPrefix(k, "sim.") || strings.HasPrefix(k, "group.") {
				label = "engine"
			}
		}
		if total++; label == "model" {
			model++
		}
		if len(out) < 20 || !seen[field] {
			seen[field] = true
			out = append(out, fmt.Sprintf("  %s %s [%s]", name, strings.Trim(where+": "+field, ": "), label))
		}
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		where, before := g[i].where, total
		var keys []string
		for _, f := range []map[string]string{g[i].fields, w[i].fields} {
			for k := range f {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for j, k := range keys {
			if (j == 0 || k != keys[j-1]) && g[i].fields[k] != w[i].fields[k] {
				note(where, strings.Split(k, "\x00")...)
			}
		}
		if total == before && g[i].raw != w[i].raw { // equal once parsed
			note(where, "formatting")
		}
	}
	if len(g) != len(w) || total == 0 {
		note(fmt.Sprintf("has %d lines, want %d", bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n"))))
	}
	verdict := "engine-only"
	if model > 0 {
		verdict = fmt.Sprintf("%d of them model", model)
	}
	return fmt.Sprintf("%s: %d fields changed, %s\n%s\n", name, total, verdict, strings.Join(out, "\n"))
}

// record is a line, keyed by JSON key path if it parses as JSON and by
// header column in a CSV, or an indented JSON block such as `telemetry
// {…}`, keyed by label and key path alone. Keys join with NUL.
type record struct {
	where, raw string
	fields     map[string]string
}

func records(path string, b []byte) []record {
	ls, out := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"), []record(nil)
	for i := 0; i < len(ls); i++ {
		r, js, keys := record{fmt.Sprintf("line %d", i+1), ls[i], map[string]string{"": ls[i]}}, ls[i], []string(nil)
		if label, ok := strings.CutSuffix(js, " {"); ok {
			block, _, _ := strings.Cut(strings.Join(ls[i:], "\n"), "\n}")
			js, keys = block[len(label):]+"\n}", []string{label}
		}
		var v any
		switch {
		case json.Unmarshal([]byte(js), &v) == nil:
			r.raw, r.fields = strings.Join(keys, "")+js, flatten(map[string]string{}, keys, v)
			if keys != nil {
				r.where = "" // a block's fields are named by key path alone
			}
			i += strings.Count(js, "\n")
		case filepath.Ext(path) == ".csv" && i > 0:
			r.fields = map[string]string{}
			header, _ := csv.NewReader(strings.NewReader(ls[0])).Read()
			row, _ := csv.NewReader(strings.NewReader(ls[i])).Read()
			for j := 0; j < len(row) && j < len(header); j++ {
				r.fields[header[j]] = row[j]
			}
		}
		out = append(out, r)
	}
	return out
}

func flatten(out map[string]string, keys []string, v any) map[string]string {
	if m, ok := v.(map[string]any); ok {
		for k, sub := range m {
			flatten(out, append(keys[:len(keys):len(keys)], k), sub)
		}
	} else {
		out[strings.Join(keys, "\x00")] = fmt.Sprint(v)
	}
	return out
}
