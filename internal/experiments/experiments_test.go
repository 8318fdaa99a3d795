package experiments

import (
	"math"
	"slices"
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
// the repository's top-level integration tests: one check over the
// Suite table at seed 101, entered once per experiment so that
// `go test -run 'TestE4$'` selects one.

// long lists the experiments -short skips, with the reason.
var long = map[string]string{
	"E2": "multi-run experiment", "E3": "sweep experiment", "E4": "16-node long run",
	"E5": "multi-run experiment", "E6": "long run", "E7": "long WAN run",
	"E8": "multi-run experiment", "E11": "multi-segment long run",
	"E12": "multi-run long experiment", "E13": "probe campaign", "E14": "three long runs",
}

// checkSuite runs suite entry id at seed 101 and checks its result.
func checkSuite(t *testing.T, id string) Result {
	t.Helper()
	i := slices.IndexFunc(Suite, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		t.Fatalf("%s is not in Suite", id)
	}
	if why, ok := long[id]; ok && testing.Short() {
		t.Skip(why)
	}
	r := Suite[i].Run(101)
	if r.ID != id {
		t.Errorf("Suite entry %s returned result %s", id, r.ID)
	}
	checkResult(t, r)
	return r
}

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
	for i, c := range r.Claims {
		if slices.ContainsFunc(r.Claims[:i], func(d Claim) bool { return d.Name == c.Name }) {
			t.Errorf("claim %q appears twice", c.Name)
		}
		if c.Kind != Invariant && c.Kind != Statistical && c.Kind != Shape {
			t.Errorf("claim %q has unknown kind %q", c.Name, c.Kind)
		}
		if !c.OK {
			t.Errorf("claim failed: %s", c.Name)
		}
		if stated, ok := c.comparison(); ok && stated != c.OK {
			t.Errorf("claim %q: OK %v, but %v against bound %v (better %s) says %v",
				c.Name, c.OK, c.Got, c.Bound, c.Better, stated)
		}
	}
	var sb strings.Builder
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), r.ID) {
		t.Error("Fprint lost the experiment id")
	}
}

// comparison evaluates a single-comparison claim's stated Got-vs-Bound
// test; ok is false for a compound claim.
func (c Claim) comparison() (holds, ok bool) {
	switch c.Better {
	case "lower":
		return c.Got < c.Bound, true
	case "higher":
		return c.Got > c.Bound, true
	case "":
		return false, false
	}
	panic("unknown Better " + c.Better)
}

func TestE1(t *testing.T)  { checkSuite(t, "E1") }
func TestE2(t *testing.T)  { checkSuite(t, "E2") }
func TestE3(t *testing.T)  { checkSuite(t, "E3") }
func TestE4(t *testing.T)  { checkSuite(t, "E4") }
func TestE6(t *testing.T)  { checkSuite(t, "E6") }
func TestE7(t *testing.T)  { checkSuite(t, "E7") }
func TestE8(t *testing.T)  { checkSuite(t, "E8") }
func TestE9(t *testing.T)  { checkSuite(t, "E9") }
func TestE10(t *testing.T) { checkSuite(t, "E10") }
func TestE11(t *testing.T) { checkSuite(t, "E11") }
func TestE12(t *testing.T) { checkSuite(t, "E12") }
func TestE13(t *testing.T) { checkSuite(t, "E13") }
func TestE14(t *testing.T) { checkSuite(t, "E14") }
func TestE15(t *testing.T) { checkSuite(t, "E15") }

func TestE5(t *testing.T) {
	r := checkSuite(t, "E5")
	// The rows follow EXPERIMENTS.md's order on every run.
	for i, want := range []string{"offset 20 ms", "wrong-second", "ramp 10 µs/s"} {
		if got := r.Table.Rows[i][1]; got != want {
			t.Errorf("row %d fault = %q, want %q", i, got, want)
		}
	}
}

func TestResultPassed(t *testing.T) {
	var r Result
	r.check(Shape, "a", true)
	r.below(Statistical, "b", 1, 2)
	r.zero("c", 0)
	if !r.Passed() {
		t.Error("all-true claims should pass")
	}
	r.above(Shape, "d", 1, 1) // 1 > 1 is false
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
