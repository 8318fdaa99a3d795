package gps

import (
	"math"
	"testing"

	"ntisim/internal/sim"
)

func collect(seed uint64, cfg Config, until float64) []Pulse {
	s := sim.New(seed)
	var out []Pulse
	New(s, cfg, "t", 0, func(p Pulse) { out = append(out, p) })
	s.RunUntil(until)
	return out
}

func TestHealthyPulsesOnSeconds(t *testing.T) {
	ps := collect(1, DefaultReceiver(), 10.5)
	if len(ps) < 9 {
		t.Fatalf("got %d pulses in 10 s", len(ps))
	}
	for _, p := range ps {
		off := p.TrueTime - float64(p.LabelSec)
		if math.Abs(off) > 300e-9 {
			t.Errorf("pulse error %v exceeds sawtooth", off)
		}
		if !p.Valid {
			t.Error("healthy pulse marked invalid")
		}
	}
}

func TestPulseLabelsConsecutive(t *testing.T) {
	ps := collect(2, DefaultReceiver(), 8)
	for i := 1; i < len(ps); i++ {
		if ps[i].LabelSec != ps[i-1].LabelSec+1 {
			t.Fatalf("labels not consecutive: %d then %d", ps[i-1].LabelSec, ps[i].LabelSec)
		}
	}
}

func TestBias(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.BiasS = 5e-6
	ps := collect(3, cfg, 20)
	var sum float64
	for _, p := range ps {
		sum += p.TrueTime - float64(p.LabelSec)
	}
	mean := sum / float64(len(ps))
	if math.Abs(mean-5e-6) > 1e-6 {
		t.Errorf("mean pulse error %v, want ~5µs bias", mean)
	}
}

func TestOutage(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultOutage, Start: 3, End: 7}}
	ps := collect(4, cfg, 12)
	for _, p := range ps {
		if p.TrueTime > 3.1 && p.TrueTime < 6.9 {
			t.Errorf("pulse at %v during outage", p.TrueTime)
		}
	}
	if len(ps) < 6 {
		t.Errorf("only %d pulses outside outage", len(ps))
	}
}

func TestOffsetFault(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultOffset, Start: 5, Magnitude: 2e-3}}
	ps := collect(5, cfg, 12)
	for _, p := range ps {
		off := p.TrueTime - float64(p.LabelSec)
		if p.LabelSec >= 6 {
			if math.Abs(off-2e-3) > 1e-5 {
				t.Errorf("pulse at sec %d: offset %v, want ~2ms", p.LabelSec, off)
			}
		} else if p.LabelSec <= 4 {
			if math.Abs(off) > 1e-5 {
				t.Errorf("pre-fault pulse offset %v", off)
			}
		}
	}
}

func TestWrongSecond(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultWrongSec, Start: 4, Magnitude: 1}}
	ps := collect(6, cfg, 10)
	sawWrong := false
	for _, p := range ps {
		if p.TrueTime > 4.5 {
			if p.LabelSec != int64(p.TrueTime+0.5)+1 {
				t.Errorf("wrong-second fault: label %d, true %v", p.LabelSec, p.TrueTime)
			}
			sawWrong = true
		}
	}
	if !sawWrong {
		t.Error("no faulty pulses observed")
	}
}

// TestWrongSecondFractionalMagnitudePanics: the label shift is whole
// seconds, so a sub-second magnitude would truncate to a healthy label
// and inject nothing; the receiver refuses it instead.
func TestWrongSecondFractionalMagnitudePanics(t *testing.T) {
	for _, mag := range []float64{0, 20e-3, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("magnitude %v: no panic", mag)
				}
			}()
			cfg := DefaultReceiver()
			cfg.Faults = []Fault{{Kind: FaultWrongSec, Start: 4, Magnitude: mag}}
			New(sim.New(1), cfg, "t", 0, nil)
		}()
	}
}

func TestRampDrift(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultRampDrift, Start: 2, Magnitude: 1e-5}}
	ps := collect(7, cfg, 30)
	last := ps[len(ps)-1]
	off := last.TrueTime - float64(last.LabelSec)
	if off < 1e-4 {
		t.Errorf("ramp drift not growing: final offset %v", off)
	}
}

func TestFlapping(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultFlapping, Start: 0, Magnitude: 1e-3}}
	ps := collect(8, cfg, 40)
	big := 0
	for _, p := range ps {
		if math.Abs(p.TrueTime-float64(p.LabelSec)) > 10e-6 {
			big++
		}
	}
	if big == 0 || big == len(ps) {
		t.Errorf("flapping should corrupt some but not all pulses: %d/%d", big, len(ps))
	}
}

func TestDeterminism(t *testing.T) {
	a := collect(42, DefaultReceiver(), 20)
	b := collect(42, DefaultReceiver(), 20)
	if len(a) != len(b) {
		t.Fatal("pulse counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pulse %d differs", i)
		}
	}
}
