package metrics_test

import (
	"math"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/timefmt"
)

// stepped returns the members of an unsynchronized ideal-oscillator
// cluster whose clocks are stepped by offs granules and whose accuracy
// intervals are set to alphas granules, together with each member's
// offset in seconds as its snapshot reads it.
func stepped(t *testing.T, offs []int64, alphas [][2]int64) ([]*cluster.Member, []float64) {
	t.Helper()
	cfg := cluster.Defaults(len(offs), 25)
	cfg.IdealOscillators = true
	c := cluster.New(cfg)
	c.RunUntil(2)
	for i, m := range c.Members {
		m.U.StepTo(m.U.Now().Add(timefmt.Duration(offs[i])))
		m.U.SetAlpha(timefmt.Duration(alphas[i][0]), timefmt.Duration(alphas[i][1]))
	}
	// Both registers load on the next oscillator tick.
	c.RunUntil(c.Now() + 1e-6)
	got := make([]float64, len(offs))
	for i, m := range c.Members {
		got[i] = m.U.Snapshot().Offset()
		if want := float64(offs[i]) * timefmt.Granule; math.Abs(got[i]-want) > 3*timefmt.Granule {
			t.Fatalf("member %d offset %v, want ≈%v", i, got[i], want)
		}
	}
	return c.Members, got
}

// TestSample reduces three members whose intervals all contain true time
// to the two figures of merit the harness records: precision (the widest
// pairwise clock difference) and the worst offset from true time.
func TestSample(t *testing.T) {
	ms, off := stepped(t, []int64{16, -32, 8}, [][2]int64{{48, 48}, {48, 48}, {24, 24}})
	s := cluster.Observe(ms)
	if want := off[0] - off[1]; s.Precision != want {
		t.Errorf("precision = %v, want %v", s.Precision, want)
	}
	if want := math.Abs(off[1]); s.MaxAbsOffset != want {
		t.Errorf("max offset = %v, want %v", s.MaxAbsOffset, want)
	}
	if !s.Contained || s.Violations != 0 {
		t.Errorf("all intervals contain true time, got %+v", s)
	}
}

// TestSampleDetectsViolation observes a single member whose interval
// [off−α⁻, off+α⁺] lies wholly above true time.
func TestSampleDetectsViolation(t *testing.T) {
	ms, _ := stepped(t, []int64{80}, [][2]int64{{40, 40}})
	s := cluster.Observe(ms)
	if s.Contained || s.Violations != 1 {
		t.Errorf("containment violation missed: %+v", s)
	}
	if s.Precision != 0 {
		t.Error("single node has no pairwise precision")
	}
}
