// Package experiments regenerates every quantitative claim of the paper
// as a runnable experiment (DESIGN.md §3 maps each to its source). Each
// experiment returns a Result with a formatted table (what cmd/ntibench
// prints and EXPERIMENTS.md records) plus typed claims that the test
// suite asserts — the *shape* of the paper's findings: who wins, by
// roughly what factor, where crossovers fall.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"ntisim/internal/metrics"
)

// Experiment is one entry of the suite.
type Experiment struct {
	ID  string
	Run func(seed uint64) Result
	// Desc is the one-line description ntibench -list prints.
	Desc string
}

// Suite is every experiment, in the order ntibench prints them.
var Suite = []Experiment{
	{"E1", E1Epsilon, "two-node transmission/reception uncertainty ε"},
	{"E2", E2TimestampClasses, "timestamping classes: task vs ISR vs NTI"},
	{"E3", E3GranularitySweep, "precision impairment 4G+10u vs fosc"},
	{"E4", E4SixteenNode, "16-node prototype precision/accuracy"},
	{"E5", E5GPSValidation, "clock validation vs naive GPS trust"},
	{"E6", E6RateSync, "rate synchronization ablation"},
	{"E7", E7WANvsLAN, "NTP over WAN vs NTI on LAN"},
	{"E8", E8AdderVsCounter, "adder-based vs counter-based clock"},
	{"E9", E9TimestampPath, "packet timestamping data path"},
	{"E10", E10BackToBack, "Receive Header Base latch vs guessing"},
	{"E11", E11WANOfLANs, "WANs-of-LANs gateway topology"},
	{"E12", E12ByzantineNode, "actively faulty node tolerance"},
	{"E13", E13HardwareMeasuredPrecision, "hardware-measured precision"},
	{"E14", E14ConvergenceShootout, "convergence-function ablation"},
	{"E15", E15ReceiverCensus, "long-term GPS receiver census"},
}

// Kind says what a claim's failure would mean.
type Kind string

const (
	// Invariant must hold on every seed: a correctness property, or
	// deterministic arithmetic such as a 4G+10u bound.
	Invariant Kind = "invariant"
	// Statistical is a threshold on one noisy measured number.
	Statistical Kind = "statistical"
	// Shape compares measurements with each other.
	Shape Kind = "shape"
)

// Claim is one checkable statement of the paper. A claim that is one
// comparison also records it: Got against Bound, passing when Got is
// below Bound (Better "lower") or above it ("higher"). A compound claim
// carries OK alone.
type Claim struct {
	Name   string  `json:"name"`
	Kind   Kind    `json:"kind"`
	OK     bool    `json:"ok"`
	Got    float64 `json:"got"`
	Bound  float64 `json:"bound"`
	Better string  `json:"better"`
}

// MarshalJSON writes got, bound and better only for a single comparison.
func (c Claim) MarshalJSON() ([]byte, error) {
	type plain Claim
	if c.Better != "" {
		return json.Marshal(plain(c))
	}
	return json.Marshal(struct {
		Name string `json:"name"`
		Kind Kind   `json:"kind"`
		OK   bool   `json:"ok"`
	}{c.Name, c.Kind, c.OK})
}

// Result is one experiment's outcome.
type Result struct {
	ID    string
	Title string
	// PaperClaim cites what the paper states.
	PaperClaim string
	Table      metrics.Table
	// Claims are asserted in this order, which is the printed order.
	Claims []Claim
	Notes  []string
}

// check records a compound or bare-boolean claim.
func (r *Result) check(kind Kind, name string, ok bool) {
	r.Claims = append(r.Claims, Claim{Name: name, Kind: kind, OK: ok})
}

// below records the claim got < bound.
func (r *Result) below(kind Kind, name string, got, bound float64) {
	r.Claims = append(r.Claims, Claim{name, kind, got < bound, got, bound, "lower"})
}

// above records the claim got > bound.
func (r *Result) above(kind Kind, name string, got, bound float64) {
	r.Claims = append(r.Claims, Claim{name, kind, got > bound, got, bound, "higher"})
}

// zero records the invariant that a count is 0, i.e. below 1.
func (r *Result) zero(name string, count int) {
	r.Claims = append(r.Claims, Claim{name, Invariant, count == 0, float64(count), 1, "lower"})
}

// Passed reports whether every claim held.
func (r *Result) Passed() bool {
	for _, c := range r.Claims {
		if !c.OK {
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
	for _, c := range r.Claims {
		status := "OK"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "claim %-40s %s\n", c.Name, status)
	}
	fmt.Fprintln(w)
}
