package experiments

import (
	"fmt"

	"ntisim/internal/harness"
)

// granularityImpairment returns the 4G+10u worst-case precision cost of
// the orthogonal accuracy convergence function [Sch97b] (§5) for a clock
// with reading granularity gS and rate-adjustment uncertainty uS; u =
// 1/fosc for the UTCSU's adder-based clock.
func granularityImpairment(gS, uS float64) float64 { return 4*gS + 10*uS }

// runCells measures the spec's cells through the campaign harness, one
// after another on the calling goroutine (ntibench's -workers pool is
// the only one), and returns their results in grid order. A failed cell
// panics with its key, as a failed experiment always has.
func runCells(spec harness.Spec) []harness.Result {
	spec.Workers = 1
	results := harness.Run(spec).Results
	for _, r := range results {
		if r.Err != "" {
			panic(fmt.Sprintf("%s %s: %s", spec.Name, r.Key(), r.Err))
		}
	}
	return results
}

// delayProbes is the RTT probe count of every experiment's delay
// calibration.
const delayProbes = 16
