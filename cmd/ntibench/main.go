// Command ntibench regenerates every experiment table of the paper
// reproduction (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded outputs). Experiments are independent
// deterministic simulations, so they are fanned across the harness
// worker pool; output is always emitted in suite order (E1..E15)
// regardless of which worker finishes first.
//
// Usage:
//
//	ntibench [-seed N] [-workers N] [E1 E4 ...]   run selected experiments (default all)
//	ntibench -list                                list experiment ids
//	ntibench -json [E1 E4 ...]                    results as JSON; each claim
//	                                              has a name, kind and ok, and
//	                                              got/bound/better when it is
//	                                              one comparison
//	ntibench -cpuprofile cpu.out -memprofile mem.out E4
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"ntisim/internal/experiments"
	"ntisim/internal/harness"
	"ntisim/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its
// exit status: 0 when every selected experiment's claims hold (and for
// -h), 1 on a failed claim or an I/O error, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1998, "base random seed (runs are reproducible per seed)")
	list := fs.Bool("list", false, "list experiments and exit")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ntibench: %v\n", err)
		return 1
	}

	if *list {
		for _, e := range experiments.Suite {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	// A typo is a usage error, not a shorter suite.
	for _, a := range fs.Args() {
		if !slices.ContainsFunc(experiments.Suite, func(e experiments.Experiment) bool { return e.ID == a }) {
			fmt.Fprintf(stderr, "ntibench: unknown experiment %q (use -list)\n", a)
			return 2
		}
	}
	var selected []experiments.Experiment
	for _, e := range experiments.Suite {
		if fs.NArg() == 0 || slices.Contains(fs.Args(), e.ID) {
			selected = append(selected, e)
		}
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}

	// Fan the suite across the pool; results land index-addressed so the
	// emitted order matches the suite order bit-for-bit.
	results := make([]experiments.Result, len(selected))
	harness.ForEach(*workers, len(selected), func(i int) {
		results[i] = selected[i].Run(*seed)
	})

	if err := stopProf(); err != nil {
		return fail(err)
	}

	failed := 0
	for _, res := range results {
		if !*asJSON {
			res.Fprint(stdout)
		}
		if !res.Passed() {
			failed++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "ntibench: %d experiment(s) with failed claims\n", failed)
		return 1
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "all %d experiments reproduce the paper's claims (seed %d)\n", len(results), *seed)
	}
	return 0
}
