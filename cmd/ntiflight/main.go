// Command ntiflight analyzes cross-layer trace artifacts (the JSONL
// emitted by `nticampaign -trace` or `ntitrace -json`): it reconstructs
// the per-hop latency distribution of the Fig. 3 timestamping data path
// — CSP send → TRANSMIT trigger → serialization → reception → RECEIVE
// trigger → stored → CI arrival → round update — and prints the fault
// onset/recovery and round-convergence timelines.
//
// Usage:
//
//	ntiflight -in artifacts/campaign-smoke.cell-000.trace.jsonl
//	ntitrace -json | ntiflight -in -
//	ntiflight -in cell.trace.jsonl -perfetto flight.json  # ui.perfetto.dev
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ntisim/internal/discipline"
	"ntisim/internal/gps"
	"ntisim/internal/metrics"
	"ntisim/internal/trace"
)

// presentKinds lists the distinct record kinds in the trace, in first-
// appearance order.
func presentKinds(recs []trace.Record) []string {
	seen := map[string]bool{}
	var out []string
	for i := range recs {
		k := recs[i].Kind.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its
// exit status: 0 on success, 1 when the trace cannot be analyzed, 2 on
// a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntiflight", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "trace JSONL file ('-' for stdin)")
	perfetto := fs.String("perfetto", "", "additionally convert the trace to Chrome/Perfetto trace-event JSON at this path")
	rounds := fs.Int("rounds", 8, "round-timeline entries to print (0 = none, -1 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rounds < -1 {
		fmt.Fprintf(stderr, "ntiflight: -rounds %d: want -1 (all), 0 (none) or a positive count\n", *rounds)
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "ntiflight: "+format+"\n", args...)
		return 1
	}

	if *in == "" {
		return fail("-in is required (trace JSONL from 'nticampaign -trace' or 'ntitrace -json')")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		r = f
	}
	recs, err := trace.ReadJSONL(r)
	if err != nil {
		return fail("%v", err)
	}
	if len(recs) == 0 {
		return fail("empty trace")
	}
	fmt.Fprintf(stdout, "%d records, t=%.6f..%.6f\n\n", len(recs), recs[0].T, recs[len(recs)-1].T)

	hops := trace.FlightPath(recs)
	matched := false
	for _, h := range hops {
		if h.N > 0 {
			matched = true
			break
		}
	}
	if !matched {
		// A zero-filled table would read as "everything took 0 µs". Name
		// the kinds the trace does carry so the user can see what they
		// loaded (e.g. a ring that wrapped past the CSP records, or a
		// tracer configured without the flight-path kinds).
		return fail("no flight-path records in %s (need csp-send/tx-trigger/frame-tx/frame-rx/rx-trigger/rx-done/csp-arrival chains; trace carries: %s)",
			*in, strings.Join(presentKinds(recs), ", "))
	}

	fmt.Fprintln(stdout, "flight path (per-hop latency, Fig. 3 stages):")
	tb := metrics.Table{Header: []string{"hop", "n", "min [µs]", "median [µs]", "p99 [µs]", "max [µs]"}}
	for _, h := range hops {
		if h.N == 0 {
			tb.AddRow(h.Name, "0", "-", "-", "-", "-")
			continue
		}
		tb.AddRow(h.Name, fmt.Sprint(h.N),
			metrics.Us(h.MinS), metrics.Us(h.MedianS), metrics.Us(h.P99S), metrics.Us(h.MaxS))
	}
	tb.Fprint(stdout)

	if faults := trace.FaultTimeline(recs); len(faults) > 0 {
		fmt.Fprintln(stdout, "\nfault timeline:")
		for _, f := range faults {
			what := "recovered from"
			mag := ""
			if f.Onset {
				what = "onset of"
				mag = fmt.Sprintf(" (magnitude %g)", f.Magnitude)
			}
			fmt.Fprintf(stdout, "  t=%10.3f  node %d: %s %s%s\n",
				f.T, f.Node, what, gps.FaultKind(f.FaultKind), mag)
		}
	}

	if evs := trace.RoundTimeline(recs); len(evs) > 0 && *rounds != 0 {
		ok, failed := 0, 0
		for _, e := range evs {
			if e.Failed {
				failed++
			} else {
				ok++
			}
		}
		fmt.Fprintf(stdout, "\nrounds: %d updates, %d convergence failures\n", ok, failed)
		show := evs
		if *rounds > 0 && len(show) > *rounds {
			fmt.Fprintf(stdout, "last %d:\n", *rounds)
			show = show[len(show)-*rounds:]
		}
		for _, e := range show {
			if e.Failed {
				fmt.Fprintf(stdout, "  t=%10.6f  node %d round %d: FAILED (%d intervals)\n",
					e.T, e.Node, e.Round, e.Intervals)
				continue
			}
			via := ""
			if e.DisciplineID >= 0 {
				via = " via " + discipline.NameOf(e.DisciplineID)
			}
			fmt.Fprintf(stdout, "  t=%10.6f  node %d round %d: %d intervals, correction %sµs%s\n",
				e.T, e.Node, e.Round, e.Intervals, metrics.Us(e.CorrectionS), via)
		}
	}

	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			return fail("%v", err)
		}
		if err := trace.WritePerfetto(f, recs); err != nil {
			f.Close()
			return fail("%v", err)
		}
		if err := f.Close(); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "\nperfetto trace: %s (load in ui.perfetto.dev or chrome://tracing)\n", *perfetto)
	}
	return 0
}
