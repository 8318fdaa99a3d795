package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestGranularityImpairment(t *testing.T) {
	// The paper's §5 numbers: G = u < 70 ns gives a bound below ~1 µs.
	g := 1.0 / (1 << 24)
	if b := granularityImpairment(g, 1/14.5e6); b >= 1e-6 {
		t.Errorf("bound at 14.5 MHz = %v, paper says <1 µs above 14 MHz", b)
	}
	if b := granularityImpairment(g, 1/10e6); b <= 1e-6 {
		t.Errorf("bound at 10 MHz = %v, should still exceed 1 µs", b)
	}
	// CSU-class: G = u = 1 µs → 14 µs.
	if b := granularityImpairment(1e-6, 1e-6); math.Abs(b-14e-6) > 1e-12 {
		t.Errorf("CSU bound = %v, want 14 µs", b)
	}
}

// Each experiment's Claims encode the paper's qualitative findings; a
// failing claim means the reproduction lost the paper's shape. These are
// the repository's top-level integration tests.

func checkResult(t *testing.T, r Result) {
	t.Helper()
	if r.ID == "" || r.Title == "" || r.PaperClaim == "" {
		t.Error("result metadata incomplete")
	}
	if len(r.Table.Rows) == 0 {
		t.Error("experiment produced no table rows")
	}
	if len(r.Claims) == 0 {
		t.Error("experiment asserts nothing")
	}
	for name, ok := range r.Claims {
		if !ok {
			t.Errorf("claim failed: %s", name)
		}
	}
	var sb strings.Builder
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), r.ID) {
		t.Error("Fprint lost the experiment id")
	}
}

func TestE1(t *testing.T) { checkResult(t, E1Epsilon(101)) }

func TestE2(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	checkResult(t, E2TimestampClasses(101))
}

func TestE3(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	checkResult(t, E3GranularitySweep(101))
}

func TestE4(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node long run")
	}
	checkResult(t, E4SixteenNode(101))
}

func TestE5(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r := E5GPSValidation(101)
	checkResult(t, r)
	// The rows follow EXPERIMENTS.md's order on every run.
	for i, want := range []string{"offset 20 ms", "wrong-second", "ramp 10 µs/s"} {
		if got := r.Table.Rows[i][1]; got != want {
			t.Errorf("row %d fault = %q, want %q", i, got, want)
		}
	}
}

func TestE6(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	checkResult(t, E6RateSync(101))
}

func TestE7(t *testing.T) {
	if testing.Short() {
		t.Skip("long WAN run")
	}
	checkResult(t, E7WANvsLAN(101))
}

func TestE8(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	checkResult(t, E8AdderVsCounter(101))
}

func TestE9(t *testing.T)  { checkResult(t, E9TimestampPath(101)) }
func TestE10(t *testing.T) { checkResult(t, E10BackToBack(101)) }

func TestResultPassed(t *testing.T) {
	r := Result{Claims: map[string]bool{"a": true, "b": true}}
	if !r.Passed() {
		t.Error("all-true claims should pass")
	}
	r.Claims["c"] = false
	if r.Passed() {
		t.Error("a false claim should fail")
	}
}

func TestSeedInsensitivityE1(t *testing.T) {
	// The headline ε result must not be a lucky seed.
	for _, seed := range []uint64{7, 77, 777} {
		r := E1Epsilon(seed)
		if !r.Passed() {
			t.Errorf("E1 failed at seed %d", seed)
		}
	}
}

func TestE11(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-segment long run")
	}
	checkResult(t, E11WANOfLANs(101))
}

func TestE12(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run long experiment")
	}
	checkResult(t, E12ByzantineNode(101))
}

func TestE13(t *testing.T) {
	if testing.Short() {
		t.Skip("probe campaign")
	}
	checkResult(t, E13HardwareMeasuredPrecision(101))
}

func TestE14(t *testing.T) {
	if testing.Short() {
		t.Skip("three long runs")
	}
	checkResult(t, E14ConvergenceShootout(101))
}

func TestE15(t *testing.T) {
	checkResult(t, E15ReceiverCensus(101))
}
