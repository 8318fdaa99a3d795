package oscillator

import (
	"math"
	"testing"
	"testing/quick"

	"ntisim/internal/sim"
)

// DriftAt returns the fractional frequency deviation in effect at t,
// derived from the actual segment period (so it reflects what the clock
// really experienced, clamps included). Like every query, t must not
// precede the present's segment.
func (o *Oscillator) DriftAt(t float64) float64 {
	s := o.segAt(t)
	return 1/(s.period*o.cfg.NominalHz) - 1
}

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

// The oscillator keeps only the previous and current segment, so the
// tests below step the run and query the present (or a future tick),
// never a time the run has left behind.

func TestTickIndexMonotonic(t *testing.T) {
	s := sim.New(2)
	o := New(s, TCXO(10e6), "a")
	prev := uint64(0)
	for x := 0.0; x < 30; x += 0.37 {
		s.RunUntil(x) // drift updates run in between
		n := o.TickIndex(x)
		if n < prev {
			t.Fatalf("TickIndex not monotonic at %v: %d < %d", x, n, prev)
		}
		prev = n
	}
}

// justBefore returns a time shortly before tick n of a TCXO at nominal
// freqHz: the drift is within ±5 ppm, so tick n is still ahead.
func justBefore(n uint64, freqHz float64) float64 {
	return float64(n) / freqHz * (1 - 1e-5)
}

func TestTickInverse(t *testing.T) {
	s := sim.New(3)
	o := New(s, TCXO(16e6), "a")
	for _, n := range []uint64{0, 1, 999, 16_000_000, 200_000_000} {
		s.RunUntil(justBefore(n, 16e6))
		at := o.TimeOfTick(n)
		got := o.TickIndex(at + 1e-12)
		if got != n {
			t.Errorf("TickIndex(TimeOfTick(%d)) = %d", n, got)
		}
	}
}

func TestDriftWithinBound(t *testing.T) {
	s := sim.New(4)
	o := New(s, TCXO(10e6), "a")
	// Push the walk past the rail: the drift clamps at once, and the
	// first update reflects the walk back inside.
	lim := clampPPM * 1e-6
	o.walk = 1.9 * lim
	if d := o.driftFor(0); d != lim {
		t.Fatalf("drift %v with the walk past the rail, want clamped to %v", d, lim)
	}
	for x := 0.0; x <= 300; x += 7 {
		s.RunUntil(x)
		if d := math.Abs(o.DriftAt(x)); d > 5.0001e-6 {
			t.Fatalf("drift %v at t=%v exceeds bound", d, x)
		}
	}
	s.RunUntil(300)
	if math.Abs(o.walk) > lim {
		t.Errorf("walk %v not reflected inside ±%v", o.walk, lim)
	}
}

func TestDriftActuallyVaries(t *testing.T) {
	s := sim.New(5)
	o := New(s, TCXO(10e6), "a")
	// One drift reading per simulated second; the 1 s updates should
	// make most of them distinct.
	distinct := map[float64]bool{}
	var d0 float64
	varied := false
	for x := 1; x < 600; x++ {
		s.RunUntil(float64(x))
		d := o.DriftAt(float64(x))
		distinct[d] = true
		switch {
		case x == 1:
			d0 = d
		case (x-2)%10 == 0 && math.Abs(d-d0) > 1e-9:
			varied = true
		}
	}
	if !varied {
		t.Error("TCXO drift never changed over 600 s")
	}
	if len(distinct) < 100 {
		t.Errorf("expected many distinct drift readings, got %d", len(distinct))
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
	mk := func() (float64, uint64) {
		s := sim.New(99)
		o := New(s, TCXO(10e6), "x")
		s.RunUntil(justBefore(123456789, 10e6))
		at := o.TimeOfTick(123456789)
		s.RunUntil(50)
		return at, o.TickIndex(50)
	}
	at1, n1 := mk()
	at2, n2 := mk()
	if at1 != at2 || n1 != n2 {
		t.Error("oscillator not deterministic")
	}
}

// Property: tick times are strictly increasing and inverse-consistent.
// Each case runs a fresh oscillator up to just before its tick.
func TestQuickTickConsistency(t *testing.T) {
	f := func(raw uint32) bool {
		n := uint64(raw) % 600_000_000 // within the simulated minute
		s := sim.New(21)
		o := New(s, TCXO(10e6), "q")
		s.RunUntil(justBefore(n, 10e6))
		at := o.TimeOfTick(n)
		atNext := o.TimeOfTick(n + 1)
		return atNext > at && o.TickIndex(at+1e-12) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkTickIndex queries the millisecond ahead of a run 100 s in.
func BenchmarkTickIndex(b *testing.B) {
	s := sim.New(1)
	o := New(s, TCXO(10e6), "a")
	s.RunUntil(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.TickIndex(100 + float64(i%1000)*1e-6)
	}
}
