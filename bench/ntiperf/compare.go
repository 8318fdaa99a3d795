package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// judgement compares one end-to-end metric of one workload between the
// parent's runs and the change's runs, paired in ledger order.
type judgement struct {
	wins, pairs int
	// verdict is "better" when the change wins at least 9 of 10 pairs
	// and its median beats the parent's by more than the parent's
	// interquartile range, "worse" when its median is worse than the
	// parent's by more than the metric's bound, and "unresolved"
	// otherwise.
	verdict string
	// withinBound holds when the change is no worse than the bound and
	// the parent's spread is narrow enough to tell (or every change run
	// beats every parent run).
	withinBound bool
}

func judge(d metricDef, parent, change []float64) judgement {
	sign := 1.0 // sign·(change − parent) > 0 means the change is better
	if d.Better == "lower" {
		sign = -1
	}
	j := judgement{pairs: min(len(parent), len(change)), verdict: "unresolved"}
	for i := 0; i < j.pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			j.wins++
		}
	}
	pm, cm := quantile(parent, 0.5), quantile(change, 0.5)
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	gain := sign * (cm - pm)
	worse := -gain / math.Abs(pm)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && sign*(c-p) > 0
		}
	}
	switch {
	case j.pairs > 0 && j.wins*10 >= j.pairs*9 && gain > iqr:
		j.verdict = "better"
	case worse > d.Bound:
		j.verdict = "worse"
	}
	j.withinBound = worse <= d.Bound && (iqr/math.Abs(pm) <= d.Bound || allBetter)
	return j
}

// compareLedgers prints, for every workload in both ledgers and every
// end-to-end metric, each side's median and quartiles over its
// untraced runs, the pairs the change won, the change/parent ratio with
// its base, and the verdict.
func compareLedgers(w io.Writer, parentPath, changePath string) error {
	parent, err := readLedger(parentPath)
	if err != nil {
		return err
	}
	change, err := readLedger(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-19s %-34s %-34s %-6s %-26s %-10s %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "wins", "change/parent (base)", "verdict", "within bound")
	for _, wl := range workloads {
		p, c := parent[wl.name], change[wl.name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, d := range endToEnd {
			pv, cv := values(p, d.Name), values(c, d.Name)
			j := judge(d, pv, cv)
			pm := quantile(pv, 0.5)
			fmt.Fprintf(w, "%-13s %-19s %-34s %-34s %-6s %-26s %-10s %v\n", wl.name, d.Name,
				quartiles(pv), quartiles(cv), fmt.Sprintf("%d/%d", j.wins, j.pairs),
				fmt.Sprintf("%.4f (%.6g %s)", quantile(cv, 0.5)/pm, pm, d.Unit), j.verdict, j.withinBound)
		}
	}
	return nil
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.6g [%.6g %.6g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

func values(runs []runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// readLedger returns a ledger's untraced runs by workload, in file
// order.
func readLedger(path string) (map[string][]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runResult{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}
