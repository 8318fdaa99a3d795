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
//	ntibench -cpuprofile cpu.out -memprofile mem.out E4
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ntisim/internal/experiments"
	"ntisim/internal/harness"
	"ntisim/internal/prof"
)

var runners = []struct {
	id  string
	fn  func(uint64) experiments.Result
	des string
}{
	{"E1", experiments.E1Epsilon, "two-node transmission/reception uncertainty ε"},
	{"E2", experiments.E2TimestampClasses, "timestamping classes: task vs ISR vs NTI"},
	{"E3", experiments.E3GranularitySweep, "precision impairment 4G+10u vs fosc"},
	{"E4", experiments.E4SixteenNode, "16-node prototype precision/accuracy"},
	{"E5", experiments.E5GPSValidation, "clock validation vs naive GPS trust"},
	{"E6", experiments.E6RateSync, "rate synchronization ablation"},
	{"E7", experiments.E7WANvsLAN, "NTP over WAN vs NTI on LAN"},
	{"E8", experiments.E8AdderVsCounter, "adder-based vs counter-based clock"},
	{"E9", experiments.E9TimestampPath, "packet timestamping data path"},
	{"E10", experiments.E10BackToBack, "Receive Header Base latch vs guessing"},
	{"E11", experiments.E11WANOfLANs, "WANs-of-LANs gateway topology"},
	{"E12", experiments.E12ByzantineNode, "actively faulty node tolerance"},
	{"E13", experiments.E13HardwareMeasuredPrecision, "hardware-measured precision"},
	{"E14", experiments.E14ConvergenceShootout, "convergence-function ablation"},
	{"E15", experiments.E15ReceiverCensus, "long-term GPS receiver census"},
}

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
		for _, r := range runners {
			fmt.Fprintf(stdout, "%-4s %s\n", r.id, r.des)
		}
		return 0
	}

	known := map[string]bool{}
	for _, r := range runners {
		known[r.id] = true
	}
	// A typo is a usage error, not a shorter suite.
	want := map[string]bool{}
	for _, a := range fs.Args() {
		if !known[a] {
			fmt.Fprintf(stderr, "ntibench: unknown experiment %q (use -list)\n", a)
			return 2
		}
		want[a] = true
	}

	var selected []int
	for i, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		selected = append(selected, i)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}

	// Fan the suite across the pool; results land index-addressed so the
	// emitted order matches the suite order bit-for-bit.
	results := make([]experiments.Result, len(selected))
	harness.ForEach(*workers, len(selected), func(i int) {
		results[i] = runners[selected[i]].fn(*seed)
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
