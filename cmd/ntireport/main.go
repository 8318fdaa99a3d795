// Command ntireport renders campaign JSONL artifacts into a
// deterministic Markdown report with embedded SVG plots: per-point
// statistics aggregated across seeds with 95% confidence intervals
// (Student-t and bootstrap), a Welch cross-point comparison, and one
// line/band/scatter chart per numeric sweep axis.
//
// Usage:
//
//	ntireport -in artifacts/             # every <name>.jsonl result artifact in the directory
//	ntireport -in artifacts/campaign-smoke.jsonl -out report.md
//
// Reports carry no wall-clock or environment metadata and all numeric
// formatting is fixed-precision, so the same artifacts always produce
// byte-identical output — main_test.go golden-gates the smoke report
// (`go test ./cmd/ntireport -run ReportGolden`, add -update after an
// intentional change).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ntisim/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its
// exit status: 0 on success (and for -h), 1 when the artifacts cannot be
// read or the report cannot be written, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntireport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "JSONL artifact file, or a directory of <name>.jsonl result artifacts (required)")
	out := fs.String("out", "", "output Markdown file (default stdout)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "ntireport: -in is required (artifact file or directory)")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ntireport: %v\n", err)
		return 1
	}

	paths := []string{*in}
	if fi, err := os.Stat(*in); err != nil {
		return fail(err)
	} else if fi.IsDir() {
		if paths, err = report.FindJSONL(*in); err != nil {
			return fail(err)
		}
		if len(paths) == 0 {
			return fail(fmt.Errorf("no *.jsonl result artifacts in %s", *in))
		}
	}

	var f *os.File
	w := stdout
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	for i, p := range paths {
		results, err := report.LoadJSONL(p)
		if err != nil {
			return fail(err)
		}
		if i > 0 {
			fmt.Fprintf(w, "\n---\n\n")
		}
		title := strings.TrimSuffix(filepath.Base(p), ".jsonl")
		if err := report.Generate(w, title, results); err != nil {
			return fail(err)
		}
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "ntireport: wrote %s (%d campaign(s))\n", *out, len(paths))
	}
	return 0
}
