package oscillator

import (
	"math"
	"testing"
	"testing/quick"

	"ntisim/internal/sim"
)

func TestIdealTickMapping(t *testing.T) {
	s := sim.New(1)
	o := New(s, Ideal(10e6), "a")
	// Tick 10 of a 10 MHz ideal oscillator is at exactly 1 µs intervals.
	if got := o.TimeOfTick(10); math.Abs(got-1e-6) > 1e-15 {
		t.Errorf("TimeOfTick(10) = %v, want 1e-6", got)
	}
	if got := o.TickIndex(1e-6 + 1e-9); got != 10 {
		t.Errorf("TickIndex = %v, want 10", got)
	}
	if got := o.TickIndex(0); got != 0 {
		t.Errorf("TickIndex(0) = %v", got)
	}
}

func TestTickIndexMonotonic(t *testing.T) {
	s := sim.New(2)
	o := New(s, TCXO(10e6), "a")
	s.RunUntil(30) // let drift updates run
	prev := uint64(0)
	for x := 0.0; x < 30; x += 0.37 {
		n := o.TickIndex(x)
		if n < prev {
			t.Fatalf("TickIndex not monotonic at %v: %d < %d", x, n, prev)
		}
		prev = n
	}
}

func TestTickInverse(t *testing.T) {
	s := sim.New(3)
	o := New(s, TCXO(16e6), "a")
	s.RunUntil(20)
	for _, n := range []uint64{0, 1, 999, 16_000_000, 200_000_000} {
		at := o.TimeOfTick(n)
		got := o.TickIndex(at + 1e-12)
		if got != n {
			t.Errorf("TickIndex(TimeOfTick(%d)) = %d", n, got)
		}
	}
}

func TestDriftWithinBound(t *testing.T) {
	s := sim.New(4)
	cfg := TCXO(10e6)
	cfg.WalkStepPPM = 10 // aggressive walk to exercise the clamp
	cfg.MaxDriftPPM = 5
	o := New(s, cfg, "a")
	s.RunUntil(300)
	for x := 0.0; x <= 300; x += 7 {
		if d := math.Abs(o.DriftAt(x)); d > 5.0001e-6 {
			t.Fatalf("drift %v at t=%v exceeds bound", d, x)
		}
	}
}

func TestDriftActuallyVaries(t *testing.T) {
	s := sim.New(5)
	o := New(s, TCXO(10e6), "a")
	s.RunUntil(600)
	d0 := o.DriftAt(1)
	varied := false
	for x := 2.0; x < 600; x += 10 {
		if math.Abs(o.DriftAt(x)-d0) > 1e-9 {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("TCXO drift never changed over 600 s")
	}
	if len(o.segs) < 100 {
		t.Errorf("expected many segments, got %d", len(o.segs))
	}
}

func TestSystematicOffsetApplied(t *testing.T) {
	s := sim.New(6)
	cfg := Ideal(10e6)
	cfg.InitOffsetPPM = 3
	o := New(s, cfg, "a")
	// After 1 true second the oscillator has ticked 10e6*(1+3e-6) times.
	n := o.TickIndex(1.0)
	want := uint64(10e6 * (1 + 3e-6))
	if diff := int64(n) - int64(want); diff < -1 || diff > 1 {
		t.Errorf("ticks after 1 s = %d, want ≈%d", n, want)
	}
}

func TestTwoOscillatorsDiffer(t *testing.T) {
	s := sim.New(7)
	a := New(s, TCXO(10e6), "a")
	b := New(s, TCXO(10e6), "b")
	if a.DriftAt(0) == b.DriftAt(0) {
		t.Error("independent oscillators got identical initial drift")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() float64 {
		s := sim.New(99)
		o := New(s, TCXO(10e6), "x")
		s.RunUntil(50)
		return o.TimeOfTick(123456789)
	}
	if mk() != mk() {
		t.Error("oscillator not deterministic")
	}
}

func TestAging(t *testing.T) {
	s := sim.New(12)
	cfg := Ideal(10e6)
	cfg.AgingPPMPerDy = 86.4 // 1e-9 per second, large enough to see
	cfg.UpdateInterval = 1
	o := New(s, cfg, "a")
	s.RunUntil(1000)
	d := o.DriftAt(999)
	want := 86.4e-6 * 999.0 / 86400
	if math.Abs(d-want) > want*0.05 {
		t.Errorf("aging drift = %v, want ≈%v", d, want)
	}
}

// Property: tick times are strictly increasing and inverse-consistent.
func TestQuickTickConsistency(t *testing.T) {
	s := sim.New(21)
	o := New(s, TCXO(10e6), "q")
	s.RunUntil(60)
	f := func(raw uint32) bool {
		n := uint64(raw) % 600_000_000 // within the simulated minute
		at := o.TimeOfTick(n)
		atNext := o.TimeOfTick(n + 1)
		return atNext > at && o.TickIndex(at+1e-12) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTickIndex(b *testing.B) {
	s := sim.New(1)
	o := New(s, TCXO(10e6), "a")
	s.RunUntil(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.TickIndex(float64(i%100) + 0.5)
	}
}
