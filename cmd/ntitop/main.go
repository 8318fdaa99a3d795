// Command ntitop is the live campaign dashboard: it polls the status
// endpoint a running `nticampaign -monitor :PORT` serves and renders
// progress, throughput, per-worker load and watchdog health in the
// terminal — `top` for a simulation campaign.
//
// Usage:
//
//	nticampaign -preset matrix -seeds 5 -monitor 127.0.0.1:9091 &
//	ntitop -addr 127.0.0.1:9091
//	ntitop -addr 127.0.0.1:9091 -once   # one status dump, no screen control
//
// The wall-clock numbers shown here (ETA, sim-s/s, worker utilization)
// exist only in the monitor; campaign artifacts never carry them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"ntisim/internal/metrics"
	"ntisim/internal/telemetry"
)

func fetch(client *http.Client, url string) (telemetry.CampaignStatus, error) {
	var st telemetry.CampaignStatus
	resp, err := client.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// bar renders a width-character progress bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", fill) + strings.Repeat("░", width-fill)
}

func fdur(s float64) string {
	if s <= 0 {
		return "-"
	}
	d := time.Duration(s * float64(time.Second)).Round(time.Second)
	return d.String()
}

func render(w *strings.Builder, st telemetry.CampaignStatus) {
	frac := 0.0
	if st.Total > 0 {
		frac = float64(st.Done) / float64(st.Total)
	}
	fmt.Fprintf(w, "%s  %d/%d cells", st.Name, st.Done, st.Total)
	if st.Failed > 0 {
		fmt.Fprintf(w, "  (%d FAILED)", st.Failed)
	}
	fmt.Fprintf(w, "\n[%s] %3.0f%%  elapsed %s  eta %s  %.0f sim-s/s\n\n",
		bar(frac, 40), 100*frac, fdur(st.ElapsedS), fdur(st.EtaS), st.SimSPS)

	if len(st.Workers) > 0 {
		tb := metrics.Table{Header: []string{"worker", "cells", "busy", "sim-s/s", "current"}}
		for _, ws := range st.Workers {
			cur := ws.Current
			if cur == "" {
				cur = "idle"
			}
			tb.AddRow(fmt.Sprint(ws.ID), fmt.Sprint(ws.Cells), fdur(ws.BusyS),
				fmt.Sprintf("%.0f", ws.SimSPS), cur)
		}
		tb.Fprint(w)
	}

	if len(st.Health) > 0 {
		fmt.Fprintf(w, "\nhealth flags:\n")
		cells := make([]string, 0, len(st.Health))
		for c := range st.Health {
			cells = append(cells, c)
		}
		sort.Strings(cells)
		for _, c := range cells {
			fmt.Fprintf(w, "  %-28s %s\n", c, strings.Join(st.Health[c], ", "))
		}
	}

	if s := st.Snapshot; s != nil {
		fmt.Fprintf(w, "\nlast snapshot (t=%.1f sim-s):\n", s.T)
		names := make([]string, 0, len(s.Counters))
		for n := range s.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %d\n", n, s.Counters[n])
		}
		// Shard lag is the one gauge family worth a live view: a shard
		// whose lag grows while others sit at zero is the straggler.
		var lags []string
		for n := range s.Gauges {
			if strings.HasPrefix(n, "group.shard_lag_s") {
				lags = append(lags, n)
			}
		}
		sort.Strings(lags)
		for _, n := range lags {
			fmt.Fprintf(w, "  %-28s %.6f (hi %.6f)\n", n, s.Gauges[n].V, s.Gauges[n].Hi)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its
// exit status: 0 when the campaign finished (or -once printed one
// status), 1 when -once cannot fetch the status, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntitop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9091", "host:port of the campaign monitor (nticampaign -monitor)")
	every := fs.Duration("every", time.Second, "refresh period")
	once := fs.Bool("once", false, "print one status snapshot and exit (no screen control)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *every <= 0 {
		// time.Sleep returns at once: the loop would hammer the
		// endpoint and clear the screen without pause.
		fmt.Fprintf(stderr, "ntitop: -every must be > 0, got %v\n", *every)
		return 2
	}

	url := "http://" + *addr + "/campaign.json"
	client := &http.Client{Timeout: 5 * time.Second}

	for {
		st, err := fetch(client, url)
		if err != nil {
			if *once {
				fmt.Fprintf(stderr, "ntitop: %v\n", err)
				return 1
			}
			// Keep polling: the campaign may not have bound yet, or just
			// exited between refreshes.
			fmt.Fprintf(stdout, "\x1b[2J\x1b[Hntitop: waiting for %s (%v)\n", url, err)
			time.Sleep(*every)
			continue
		}
		var b strings.Builder
		render(&b, st)
		if *once {
			fmt.Fprint(stdout, b.String())
			return 0
		}
		fmt.Fprintf(stdout, "\x1b[2J\x1b[H%s", b.String())
		if st.Total > 0 && st.Done >= st.Total {
			return 0
		}
		time.Sleep(*every)
	}
}
