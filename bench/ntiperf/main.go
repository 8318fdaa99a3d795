// Command ntiperf is the simulator's benchmark. It runs named workloads
// through the simulator's public APIs, checks that their simulated
// outputs are correct, prints every metric by name with its unit, and
// appends each run to a JSON-lines ledger.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	ntiperf [-workload NAME] [-seed N] [-seconds S]   end-to-end metrics
//	ntiperf -trace 1 [-workload NAME] [-tracedir DIR]  per-layer metrics
//	ntiperf -compare parent.jsonl change.jsonl         paired verdicts
//
// Without -workload every workload runs in turn. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics. The exit code is 1 when a simulated output differs from its
// golden or between reps, and 2 on bad arguments.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntiperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+" (default: all)")
	seed := fs.Uint64("seed", benchSeed, "workload seed")
	seconds := fs.Float64("seconds", defaultOptions.seconds, "host seconds of timed reps per workload")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	traceDir := fs.String("tracedir", defaultOptions.traceDir, "directory for the traced run's spans and CPU profiles")
	ledger := fs.String("ledger", ".bench_build/ntiperf.jsonl", "JSON-lines ledger every run is appended to (empty: none)")
	compare := fs.Bool("compare", false, "compare two ledgers given as arguments: parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "ntiperf: -compare wants two ledgers: parent.jsonl change.jsonl")
			return 2
		}
		if err := compareLedgers(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "ntiperf:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "ntiperf: unknown workload %q (valid: %s)\n", *name, workloadNames())
			return 2
		}
		todo = []workload{w}
	}
	o := defaultOptions
	o.seconds = *seconds
	o.traceDir = *traceDir

	var results []runResult
	for _, w := range todo {
		var res runResult
		var err error
		if *trace == 1 {
			res, err = tracedRun(w, *seed, o)
		} else {
			res, err = timedRun(w, *seed, o)
		}
		if err != nil {
			fmt.Fprintf(stderr, "ntiperf: %s: %v\n", w.name, err)
			return 1
		}
		printRun(stdout, res)
		if err := appendLedger(*ledger, res); err != nil {
			fmt.Fprintln(stderr, "ntiperf:", err)
			return 1
		}
		results = append(results, res)
	}
	line, ok := resultLine(results)
	fmt.Fprintln(stdout, line)
	if !ok {
		for _, r := range results {
			for _, p := range r.Problems {
				fmt.Fprintf(stderr, "ntiperf: %s: %s\n", r.Workload, p)
			}
		}
		return 1
	}
	return 0
}

func defsFor(r runResult) []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

func printRun(w io.Writer, r runResult) {
	fmt.Fprintf(w, "%s seed=%d trace=%v reps=%d attempted=%d failed=%d correct=%v digest=%s\n",
		r.Workload, r.Seed, r.Trace, r.Reps, r.Attempted, r.Failed, r.Correct, r.Digest)
	for _, d := range defsFor(r) {
		s := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-32s %16.6g %-10s q1=%.6g q3=%.6g n=%d\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "  simulated: precision_us=%g served_p99_err_us=%g\n", r.Simulated["precision_us"], r.Simulated["served_p99_err_us"])
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final JSON object. With one workload its metrics
// carry their own names; with several, each is prefixed by
// "<workload>/".
func resultLine(results []runResult) (string, bool) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range defsFor(r) {
			key := d.Name
			if len(results) > 1 {
				key = r.Workload + "/" + d.Name
			}
			out.Metrics[key] = metricValue{r.Metrics[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is a finite float, a string or an int
	}
	return string(b), out.Correct
}

func appendLedger(path string, r runResult) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	return errors.Join(err, f.Close())
}
