package utcsu

import (
	"math"
	"testing"
	"testing/quick"

	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// rig builds a simulator + UTCSU on an oscillator config.
func rig(t testing.TB, seed uint64, cfg oscillator.Config) (*sim.Simulator, *UTCSU) {
	t.Helper()
	s := sim.New(seed)
	o := oscillator.New(s, cfg, "dut")
	return s, New(s, o)
}

func TestNominalRate(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(10)
	got := u.Now().Seconds()
	// Augend truncation to 2^-51 loses at most fosc*2^-51 per second.
	maxErr := 10 * 10e6 / math.Exp2(51) * 10
	if math.Abs(got-10) > maxErr+timefmt.Granule {
		t.Errorf("clock after 10 s = %v (err %v)", got, got-10)
	}
}

func TestGranularity(t *testing.T) {
	_, u := rig(t, 1, oscillator.Ideal(10e6))
	v := u.Now()
	if v.Time().Frac%(1<<40) != 0 {
		t.Error("Now() not quantized to 2^-24 s")
	}
}

func TestFrequencyRangeEnforced(t *testing.T) {
	s := sim.New(1)
	for _, f := range []float64{0.5e6, 25e6} {
		o := oscillator.New(s, oscillator.Ideal(f), "bad")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("frequency %v accepted", f)
				}
			}()
			New(s, o)
		}()
	}
}

func TestSetRatePPB(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	u.SetRatePPB(100_000) // +100 ppm
	s.RunUntil(10)
	got := u.Now().Seconds()
	want := 10 * (1 + 100e-6)
	if math.Abs(got-want) > 1e-5 {
		t.Errorf("clock with +100ppm after 10 s = %v, want %v", got, want)
	}
	if u.RatePPB() != 100_000 {
		t.Errorf("RatePPB = %v", u.RatePPB())
	}
}

func TestRateStepGranularity(t *testing.T) {
	// Paper §3.3: rate adjustable in steps of ~10 ns/s. At 20 MHz the
	// step is 20e6*2^-51 ≈ 8.9 ppb.
	_, u := rig(t, 1, oscillator.Ideal(20e6))
	step := u.RateStepPPB()
	if step < 5 || step > 15 {
		t.Errorf("rate step = %v ppb, want ~10", step)
	}
	// A rate request below one step has no effect on the augend.
	s2, u2 := rig(t, 2, oscillator.Ideal(20e6))
	u2.SetRatePPB(1) // below one quantum
	s2.RunUntil(5)
	got := u2.Now().Seconds()
	if math.Abs(got-5) > 5*20e6/math.Exp2(51)*5+timefmt.Granule {
		t.Errorf("sub-quantum rate change moved the clock: %v", got)
	}
}

func TestStepTo(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(1)
	target := timefmt.Stamp(timefmt.DurationFromSeconds(100))
	u.StepTo(target)
	s.RunUntil(1.001)
	got := u.Now().Seconds()
	if math.Abs(got-100.001) > 1e-5 {
		t.Errorf("after StepTo(100): %v", got)
	}
}

func TestAmortizeForward(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(1)
	intt := 0
	u.OnInterrupt(func(l IntLine, src string) {
		if l == INTT && src == "AMORT" {
			intt++
		}
	})
	u.EnableInt(INTT, true)
	before := u.Now()
	delta := timefmt.DurationFromSeconds(100e-6) // +100 µs
	u.Amortize(delta, 5000)                      // 0.5% speedup -> ~20 ms long
	if on, d := u.Amortizing(); !on || d != delta {
		t.Errorf("Amortizing = %v %v", on, d)
	}
	s.RunUntil(1.1) // well past amortization end
	if on, _ := u.Amortizing(); on {
		t.Error("amortization did not end")
	}
	got := u.Now().Sub(before).Seconds()
	want := 0.1 + 100e-6
	if math.Abs(got-want) > 2e-6 {
		t.Errorf("advance over 100ms = %v, want %v", got, want)
	}
	if intt != 1 {
		t.Error("no INTT at amortization end")
	}
}

func TestAmortizeBackwardMonotonic(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(1)
	u.Amortize(timefmt.DurationFromSeconds(-50e-6), 5000)
	prev := u.Now()
	for x := 1.0; x < 1.05; x += 0.0001 {
		s.RunUntil(x)
		cur := u.Now()
		if cur < prev {
			t.Fatalf("clock went backwards during amortization: %v < %v", cur, prev)
		}
		prev = cur
	}
	s.RunUntil(1.2)
	got := u.Now().Seconds()
	want := 1.2 - 50e-6
	if math.Abs(got-want) > 2e-6 {
		t.Errorf("after -50µs amortization: %v, want %v", got, want)
	}
}

func TestAmortizeZeroNoop(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	u.Amortize(0, 5000)
	if on, _ := u.Amortizing(); on {
		t.Error("zero amortization should be a no-op")
	}
	s.RunUntil(1)
}

func TestAmortizeSupersede(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(1)
	u.Amortize(timefmt.DurationFromSeconds(500e-6), 1000)
	s.RunUntil(1.01)
	// Supersede mid-flight with a new adjustment.
	u.Amortize(timefmt.DurationFromSeconds(10e-6), 5000)
	s.RunUntil(2)
	if on, _ := u.Amortizing(); on {
		t.Error("second amortization never ended")
	}
}

func TestAlphaDeterioration(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	u.SetDriftBoundPPB(2000, 2000) // 2 ppm per side
	u.SetAlpha(0, 0)
	s.RunUntil(10)
	am, ap := u.Alpha()
	// 2 ppm over 10 s = 20 µs ≈ 335 granules.
	want := 20e-6
	if math.Abs(am.Duration().Seconds()-want) > 1e-6 || math.Abs(ap.Duration().Seconds()-want) > 1e-6 {
		t.Errorf("alpha after 10s = %v/%v, want ~20µs", am, ap)
	}
}

func TestAlphaSet(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	u.SetAlpha(timefmt.DurationFromSeconds(10e-6), timefmt.DurationFromSeconds(20e-6))
	s.RunUntil(0.001)
	am, ap := u.Alpha()
	if math.Abs(am.Duration().Seconds()-10e-6) > 1e-6 || math.Abs(ap.Duration().Seconds()-20e-6) > 1e-6 {
		t.Errorf("SetAlpha -> %v/%v", am, ap)
	}
}

func TestAlphaSaturates(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	u.SetDriftBoundPPB(100_000, 100_000) // huge: 100 ppm
	u.SetAlpha(0, 0)
	s.RunUntil(60) // 100ppm*60s = 6 ms > 3.9 ms register max
	am, ap := u.Alpha()
	if am != timefmt.AlphaMax || ap != timefmt.AlphaMax {
		t.Errorf("alpha should saturate: %v/%v", am, ap)
	}
	// Long after saturation it must stay there (no wraparound), even at
	// extreme horizons where naive accumulators would overflow.
	s.RunUntil(20000)
	am, ap = u.Alpha()
	if am != timefmt.AlphaMax || ap != timefmt.AlphaMax {
		t.Errorf("alpha wrapped after saturation: %v/%v", am, ap)
	}
}

func TestAmortizationCouplesAlpha(t *testing.T) {
	// While amortizing forward, the clock moves toward the interval's
	// upper edge: α⁺ must shrink and α⁻ grow at the amortization rate.
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	u.SetAlpha(timefmt.DurationFromSeconds(100e-6), timefmt.DurationFromSeconds(100e-6))
	s.RunUntil(0.5)
	am0, ap0 := u.Alpha()
	u.Amortize(timefmt.DurationFromSeconds(50e-6), 5000)
	s.RunUntil(0.6) // amortization of 50µs at 0.5% takes 10 ms
	am1, ap1 := u.Alpha()
	dMinus := am1.Duration().Seconds() - am0.Duration().Seconds()
	dPlus := ap1.Duration().Seconds() - ap0.Duration().Seconds()
	if math.Abs(dMinus-50e-6) > 3e-6 {
		t.Errorf("alpha- grew by %v, want ~50µs", dMinus)
	}
	if math.Abs(dPlus+50e-6) > 3e-6 {
		t.Errorf("alpha+ changed by %v, want ~-50µs", dPlus)
	}
}

func TestAlphaZeroMaskDuringAmortization(t *testing.T) {
	// If α⁺ is already tiny, forward amortization would drive it
	// negative; the hardware zero-masks it instead.
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	u.SetAlpha(timefmt.DurationFromSeconds(10e-6), timefmt.DurationFromSeconds(1e-6))
	s.RunUntil(0.5)
	u.Amortize(timefmt.DurationFromSeconds(80e-6), 5000)
	s.RunUntil(0.508) // mid-amortization (16 ms total)
	_, ap := u.Alpha()
	if ap.Duration() < 0 {
		t.Fatalf("alpha+ negative: %v", ap)
	}
	s.RunUntil(0.6)
	_, apEnd := u.Alpha()
	if apEnd.Duration() < 0 {
		t.Fatalf("alpha+ negative after amortization: %v", apEnd)
	}
}

func TestContainmentInvariant(t *testing.T) {
	// The core interval-clock invariant (P/A, paper §2): with the drift
	// bound programmed at least as large as the true oscillator drift,
	// real time stays inside [C-α⁻, C+α⁺] forever (no resync needed:
	// deterioration covers the drift).
	s := sim.New(7)
	o := oscillator.New(s, oscillator.TCXO(10e6), "dut")
	u := New(s, o)
	// Initialize the clock to true time with a small initial alpha.
	u.StepTo(timefmt.Stamp(timefmt.DurationFromSeconds(s.Now())))
	u.SetAlpha(timefmt.DurationFromSeconds(2e-6), timefmt.DurationFromSeconds(2e-6))
	rho := int64(oscillator.TCXOClampPPM*1e3) + 1
	u.SetDriftBoundPPB(rho, rho)
	for x := 1.0; x <= 120; x += 1 {
		s.RunUntil(x)
		snap := u.Snapshot()
		truth := timefmt.DurationFromSeconds(snap.TrueTime)
		lo := timefmt.Duration(snap.Clock) - snap.AlphaMinus.Duration()
		hi := timefmt.Duration(snap.Clock) + snap.AlphaPlus.Duration() + 1 // reading granularity
		if truth < lo || truth > hi {
			t.Fatalf("t=%v: truth %v outside [%v, %v]", x, truth, lo, hi)
		}
	}
}

func TestSampleUnitQuantization(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(1e6)) // 1 µs ticks: visible quantization
	s.RunUntil(0.5)
	su := u.APU(0)
	st, ok := su.Trigger(true)
	if !ok {
		t.Fatal("trigger rejected")
	}
	// Sample reflects the next tick: within (0, 2] µs of now (1 tick
	// synchronizer + reading granularity).
	d := st.Seconds() - 0.5
	if d < 0 || d > 2.1e-6 {
		t.Errorf("sample offset from event = %v", d)
	}
	if _, _, _, seq := su.Read(); seq != 1 {
		t.Errorf("seq = %d", seq)
	}
}

func TestSampleUnitPolarity(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(0.1)
	su := u.APU(1)
	if _, ok := su.Trigger(false); ok {
		t.Error("falling edge accepted")
	}
	if _, _, _, seq := su.Read(); seq != 0 {
		t.Errorf("falling edge counted: seq = %d", seq)
	}
	if _, ok := su.Trigger(true); !ok {
		t.Error("rising edge rejected")
	}
}

func TestSampleUnitInterrupt(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(0.1)
	var got []IntLine
	u.OnInterrupt(func(l IntLine, src string) { got = append(got, l) })
	u.EnableInt(INTN, true)
	u.SSU(0).EnableInterrupt(true)
	u.SSU(0).Trigger(true)
	if len(got) != 1 || got[0] != INTN {
		t.Errorf("interrupts = %v", got)
	}
	// APU goes to INTA; masked -> latched, delivered on unmask.
	u.APU(0).EnableInterrupt(true)
	u.APU(0).Trigger(true)
	if len(got) != 1 {
		t.Error("masked INTA delivered early")
	}
	u.EnableInt(INTA, true)
	if len(got) != 2 || got[1] != INTA {
		t.Errorf("latched INTA not delivered: %v", got)
	}
	// A GPS pulse unit shares INTA with the APUs.
	u.GPU(0).EnableInterrupt(true)
	u.GPU(0).Trigger(true)
	if len(got) != 3 || got[2] != INTA {
		t.Errorf("GPU interrupt: %v", got)
	}
}

func TestDutyTimerFires(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(0.5) // arm inside the clock segment, not at its start
	fired := -1.0
	u.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(2)), func() { fired = s.Now() })
	s.RunUntil(3)
	if fired < 0 {
		t.Fatal("duty timer never fired")
	}
	if math.Abs(fired-2) > 1e-5 {
		t.Errorf("fired at %v, want ~2", fired)
	}
}

func TestDutyTimerPastTargetFiresImmediately(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(5)
	fired := -1.0
	u.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(1)), func() { fired = s.Now() })
	s.RunUntil(5.001)
	if fired < 0 || fired > 5.0005 {
		t.Errorf("past-target timer fired at %v", fired)
	}
}

func TestDutyTimerCancel(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	fired := false
	dt := u.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(1)), func() { fired = true })
	dt.Cancel()
	if !dt.done {
		t.Error("cancelled timer pending")
	}
	s.RunUntil(2)
	if fired {
		t.Error("cancelled timer fired")
	}
	if len(u.timers) != 0 {
		t.Errorf("timer list not cleaned: %d", len(u.timers))
	}
}

func TestDutyTimerSurvivesRateChange(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	fired := -1.0
	u.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(2)), func() { fired = s.Now() })
	s.RunUntil(1)
	u.SetRatePPB(500_000) // clock now runs 0.05% fast
	s.RunUntil(3)
	if fired < 0 {
		t.Fatal("timer lost after rate change")
	}
	// Clock reaches 2.0 earlier than true 2.0 now.
	want := 1 + 1/(1+500e-6)
	if math.Abs(fired-want) > 1e-4 {
		t.Errorf("fired at %v, want ~%v", fired, want)
	}
}

func TestDutyTimerWithDriftingOscillator(t *testing.T) {
	s := sim.New(3)
	o := oscillator.New(s, oscillator.TCXO(10e6), "dut")
	u := New(s, o)
	fired := -1.0
	u.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(30)), func() { fired = s.Now() })
	s.RunUntil(40)
	if fired < 0 {
		t.Fatal("timer never fired under drift")
	}
	// Clock value at firing must be >= target.
	if math.Abs(fired-30) > 0.01 {
		t.Errorf("fired at %v", fired)
	}
}

func TestReadWordsChecksum(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(123.456)
	ts, ms := u.Now().Words()
	got, ok := timefmt.FromWords(ts, ms)
	if !ok {
		t.Fatal("checksum failed on valid read")
	}
	if got != u.Now() {
		t.Errorf("words decode %v, Now %v", got, u.Now())
	}
}

func TestSelfTest(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(1)
	if err := u.SelfTest(); err != nil {
		t.Errorf("SelfTest: %v", err)
	}
}

func TestSnapshotTruth(t *testing.T) {
	s, u := rig(t, 1, oscillator.Ideal(10e6))
	s.RunUntil(2.5)
	snap := u.Snapshot()
	if snap.TrueTime != 2.5 {
		t.Errorf("snapshot true time = %v", snap.TrueTime)
	}
	if math.Abs(snap.Clock.Seconds()-2.5) > 1e-5 {
		t.Errorf("snapshot clock = %v", snap.Clock)
	}
}

// TestQuickOperationSequences drives the chip with random command
// sequences and checks the hardware invariants that no software may
// break: the clock never runs backwards except through an explicit
// state load, reads stay granule-aligned, and the accuracy registers
// never go negative or wrap.
func TestQuickOperationSequences(t *testing.T) {
	f := func(ops []uint8, seedRaw uint16) bool {
		s := sim.New(uint64(seedRaw) + 1)
		o := oscillator.New(s, oscillator.TCXO(10e6), "fuzz")
		u := New(s, o)
		rng := s.RNG("fuzz-ops")
		prev := u.Now()
		steppedBack := false
		for _, op := range ops {
			s.RunUntil(s.Now() + 0.01 + rng.Float64()*0.05)
			switch op % 5 {
			case 0:
				u.SetRatePPB(int64(rng.Intn(400_001)) - 200_000)
			case 1:
				d := timefmt.Duration(rng.Intn(2001) - 1000) // ±60 µs
				u.Amortize(d, int64(1+rng.Intn(9000)))
			case 2:
				u.SetAlpha(timefmt.Duration(rng.Intn(70000)), timefmt.Duration(rng.Intn(70000)))
			case 3:
				u.SetDriftBoundPPB(int64(rng.Intn(5000)), int64(rng.Intn(5000)))
			case 4:
				// Forward-only state load (backward loads legitimately
				// rewind the clock; exclude them from the monotonicity
				// check).
				u.StepTo(u.Now().Add(timefmt.Duration(rng.Intn(1000))))
				steppedBack = false
			}
			now := u.Now()
			if !steppedBack && now < prev {
				t.Logf("clock went backwards: %v -> %v after op %d", prev, now, op%5)
				return false
			}
			prev = now
			am, ap := u.Alpha()
			if am > timefmt.AlphaMax || ap > timefmt.AlphaMax {
				return false
			}
			if now.Time().Frac%(1<<40) != 0 {
				return false // reading not granule-aligned
			}
			if err := u.SelfTest(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
