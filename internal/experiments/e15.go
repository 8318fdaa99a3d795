package experiments

import (
	"fmt"
	"math"

	"ntisim/internal/gps"
	"ntisim/internal/sim"
)

// E15ReceiverCensus reproduces the spirit of [HS97] (paper footnote 7:
// "we conducted a 2-month continuous experimental evaluation of the
// output of six different GPS receivers, which revealed a wide variety
// of failures"): six simulated receivers with individual fault schedules
// run for a long (time-compressed) campaign; each pulse is judged
// against truth and tallied into a failure census — the empirical basis
// for never trusting a receiver without clock validation (E5).
func E15ReceiverCensus(seed uint64) Result {
	r := Result{
		ID:         "E15",
		Title:      "long-term GPS receiver census ([HS97], footnote 7)",
		PaperClaim: "footnote 7: two-month evaluation of six receivers revealed a wide variety of failures",
	}
	const horizon = 3600.0 // one simulated hour ≈ the study, compressed

	type census struct {
		name     string
		cfg      gps.Config
		pulses   int
		missing  int
		badLabel int
		badPulse int // pulse error beyond 10x claimed accuracy
	}
	receivers := []*census{
		{name: "rx0 healthy", cfg: gps.DefaultReceiver()},
		{name: "rx1 healthy", cfg: gps.DefaultReceiver()},
		{name: "rx2 outages", cfg: withFaults(
			gps.Fault{Kind: gps.FaultOutage, Start: 300, End: 420},
			gps.Fault{Kind: gps.FaultOutage, Start: 1800, End: 2400})},
		{name: "rx3 offset step", cfg: withFaults(
			gps.Fault{Kind: gps.FaultOffset, Start: 900, End: 1500, Magnitude: 5e-3})},
		{name: "rx4 wrong-second", cfg: withFaults(
			gps.Fault{Kind: gps.FaultWrongSec, Start: 2000, End: 2600, Magnitude: 1})},
		{name: "rx5 flapping", cfg: withFaults(
			gps.Fault{Kind: gps.FaultFlapping, Start: 0, Magnitude: 2e-3})},
	}

	s := sim.New(seed)
	// A float64 variable: 10*acc rounds at run time, where the untyped
	// constant product would be exactly 1e-5.
	acc := gps.ClaimedAccuracyS
	for i, c := range receivers {
		gps.New(s, c.cfg, c.name, i, func(p gps.Pulse) {
			c.pulses++
			// Judge against simulation truth: the pulse physically marks
			// the nearest whole second; the label should name it.
			trueSec := math.Round(p.TrueTime)
			if p.LabelSec != int64(trueSec) {
				c.badLabel++
			}
			if math.Abs(p.TrueTime-trueSec) > 10*acc {
				c.badPulse++
			}
		})
	}
	s.RunUntil(horizon + 1) // +1 s so the last pulse (which may trail its second) lands

	r.Table.Header = []string{"receiver", "pulses", "missing", "bad label", "bad pulse", "trustworthy"}
	anyFailure := false
	healthyClean := true
	for _, c := range receivers {
		c.missing = int(horizon) - 1 - c.pulses
		if c.missing < 0 {
			c.missing = 0
		}
		trustworthy := c.missing == 0 && c.badLabel == 0 && c.badPulse == 0
		if !trustworthy {
			anyFailure = true
		}
		if c.name[:3] == "rx0" || c.name[:3] == "rx1" {
			healthyClean = healthyClean && trustworthy
		}
		r.Table.AddRow(c.name, fmt.Sprint(c.pulses), fmt.Sprint(c.missing),
			fmt.Sprint(c.badLabel), fmt.Sprint(c.badPulse), fmt.Sprint(trustworthy))
	}

	outages, offset, wrongSec := receivers[2], receivers[3], receivers[4]
	r.check(Invariant, "a wide variety of failures observed (outage+offset+label+flap)",
		outages.missing > 100 && offset.badPulse > 100 && anyFailure)
	r.check(Invariant, "healthy receivers stay clean for the whole campaign", healthyClean)
	r.check(Invariant, "wrong-second receiver mislabels while pulsing fine",
		wrongSec.badPulse == 0 && wrongSec.badLabel > 100)
	r.Notes = append(r.Notes,
		"one simulated hour at 1 pulse/s stands in for the study's two months; the failure classes and their signatures are the point, not the duration")
	return r
}

func withFaults(fs ...gps.Fault) gps.Config { return gps.Config{Faults: fs} }
