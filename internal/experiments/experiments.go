// Package experiments regenerates every quantitative claim of the paper
// as a runnable experiment (DESIGN.md §3 maps each to its source). Each
// experiment returns a Result with a formatted table (what cmd/ntibench
// prints and EXPERIMENTS.md records) plus named claims that the test
// suite asserts — the *shape* of the paper's findings: who wins, by
// roughly what factor, where crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"ntisim/internal/metrics"
)

// Result is one experiment's outcome.
type Result struct {
	ID    string
	Title string
	// PaperClaim cites what the paper states.
	PaperClaim string
	Table      metrics.Table
	// Claims are named booleans the harness asserts (shape checks).
	Claims map[string]bool
	// Numbers exposes key measured values for the harness/EXPERIMENTS.md.
	Numbers map[string]float64
	Notes   []string
}

// Passed reports whether every claim held.
func (r *Result) Passed() bool {
	for _, ok := range r.Claims {
		if !ok {
			return false
		}
	}
	return true
}

// Fprint renders the experiment like an evaluation-section table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", r.ID, r.Title)
	fmt.Fprintf(w, "paper: %s\n\n", r.PaperClaim)
	r.Table.Fprint(w)
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(r.Claims))
	for name := range r.Claims {
		names = append(names, name)
	}
	sort.Strings(names) // map order is randomized; tables must be stable
	for _, name := range names {
		status := "OK"
		if !r.Claims[name] {
			status = "FAILED"
		}
		fmt.Fprintf(w, "claim %-40s %s\n", name, status)
	}
	fmt.Fprintln(w)
}
