package timefmt

import (
	"math"
	"testing"
	"testing/quick"

	"ntisim/internal/fixpt"
)

func TestDurationConversions(t *testing.T) {
	d := DurationFromSeconds(1e-6)
	if math.Abs(d.Seconds()-1e-6) > Granule {
		t.Errorf("1µs round trip = %v s", d.Seconds())
	}
	if math.Abs(d.Micros()-1.0) > Granule*1e6 {
		t.Errorf("Micros = %v", d.Micros())
	}
	if DurationFromSeconds(-1e-6) != -d {
		t.Error("negative conversion not symmetric")
	}
}

func TestDurationAbs(t *testing.T) {
	if Duration(-5).Abs() != 5 || Duration(5).Abs() != 5 || Duration(0).Abs() != 0 {
		t.Error("Abs wrong")
	}
}

func TestStampQuantization(t *testing.T) {
	ft := fixpt.FromSeconds(1.23456789)
	s := StampFromTime(ft)
	back := s.Time()
	diff := ft.Sub(back).Seconds()
	if diff < 0 || diff >= Granule {
		t.Errorf("stamp quantization error %v, want [0, %v)", diff, Granule)
	}
}

func TestStampArithmetic(t *testing.T) {
	a := StampFromTime(fixpt.FromSeconds(10))
	b := a.Add(DurationFromSeconds(0.5))
	if got := b.Sub(a).Seconds(); math.Abs(got-0.5) > Granule {
		t.Errorf("Sub after Add = %v", got)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	for _, sec := range []float64{0, 1, 255.9, 256, 1000.5, 123456.789} {
		s := StampFromTime(fixpt.FromSeconds(sec))
		ts, ms := s.Words()
		got, ok := FromWords(ts, ms)
		if !ok {
			t.Fatalf("checksum rejected valid words for %v s", sec)
		}
		if got != s {
			t.Errorf("round trip %v: got %v want %v", sec, got, s)
		}
	}
}

func TestWordsDetectCorruption(t *testing.T) {
	s := StampFromTime(fixpt.FromSeconds(1234.5678))
	ts, ms := s.Words()
	// Flip each byte of each word; the checksum must catch it.
	for bit := 0; bit < 32; bit += 8 {
		if _, ok := FromWords(ts^(0xFF<<bit), ms); ok {
			t.Errorf("corruption in timestamp byte %d not detected", bit/8)
		}
	}
	for bit := 8; bit < 32; bit += 8 { // low byte of ms is the checksum itself
		if _, ok := FromWords(ts, ms^(0xFF<<bit)); ok {
			t.Errorf("corruption in macrostamp byte %d not detected", bit/8)
		}
	}
}

func TestTimestampWrapPeriod(t *testing.T) {
	// The timestamp word must be identical 256 s apart (paper §3.3:
	// "wraps around every 256 s").
	a := StampFromTime(fixpt.FromSeconds(17.25))
	b := StampFromTime(fixpt.FromSeconds(17.25 + WrapPeriodSeconds))
	tsA, _ := a.Words()
	tsB, _ := b.Words()
	if tsA != tsB {
		t.Errorf("timestamp words differ across 256 s: %08x vs %08x", tsA, tsB)
	}
	_, msA := a.Words()
	_, msB := b.Words()
	if msA == msB {
		t.Error("macrostamps should differ across 256 s")
	}
}

func TestAlphaSaturation(t *testing.T) {
	a := AlphaFromDuration(DurationFromSeconds(10)) // way over 16 bits
	if a != AlphaMax {
		t.Errorf("expected saturation, got %v", a)
	}
	if AlphaMax.AddSat(1) != AlphaMax {
		t.Error("AddSat must saturate")
	}
	if AlphaFromDuration(-3) != 0 {
		t.Error("negative duration must clamp to 0")
	}
}

func TestAlphaGranularity(t *testing.T) {
	// One alpha unit is one granule ≈ 59.6 ns.
	if got := Alpha(1).Duration().Seconds(); math.Abs(got-Granule) > 1e-15 {
		t.Errorf("alpha unit = %v, want %v", got, Granule)
	}
}

// Property: Words/FromWords round-trips for any in-range stamp.
func TestQuickWordsRoundTrip(t *testing.T) {
	f := func(raw int64) bool {
		s := Stamp(raw & (1<<55 - 1)) // keep within 56-bit non-negative range
		ts, ms := s.Words()
		got, ok := FromWords(ts, ms)
		return ok && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stamp quantization always rounds down by < 1 granule.
func TestQuickStampFloor(t *testing.T) {
	f := func(sec uint16, frac uint64) bool {
		ft := fixpt.FromSecFrac(int64(sec), frac)
		d := ft.Sub(StampFromTime(ft).Time())
		return !d.IsNegative() && d.Seconds() < Granule
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddSat is commutative and bounded.
func TestQuickAlphaAddSat(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := Alpha(a), Alpha(b)
		s := x.AddSat(y)
		return s == y.AddSat(x) && s >= x && s >= y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
