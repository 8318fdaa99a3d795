package utcsu

import (
	"fmt"
	"testing"

	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// A FuzzClockOps program is a sequence of clockOpSize-byte operations:
//
//	[0] kind (low 3 bits) and a parameter p (high 5 bits)
//	[1] time advance before the operation: the top two bits pick the
//	    unit — 00 none (same instant), 01 10 ns (inside one 100 ns tick
//	    of the 10 MHz TCXO), 10 1 ms, 11 50 ms (crosses the oscillator's
//	    1 s drift updates and amortization ends) — the low six the count
//	[2:4] a big-endian 16-bit argument
const (
	clockOpSize  = 4
	maxClockOps  = 256
	numClockOps  = 8
	opSetRate    = 0
	opAmortize   = 1
	opStepTo     = 2
	opSetAlpha   = 3
	opDriftBound = 4
	opTrigger    = 5
	opDuty       = 6
	opSnapshot   = 7
)

// advanceS decodes an operation's time advance byte into seconds.
func advanceS(b byte) float64 {
	k := float64(b & 63)
	switch b >> 6 {
	case 1:
		return k * 10e-9
	case 2:
		return k * 1e-3
	case 3:
		return k * 50e-3
	}
	return 0
}

// FuzzClockOps drives a UTCSU on a TCXO through random clock commands,
// sample triggers, duty timers and snapshots at nondecreasing times,
// several often inside one oscillator tick. The LTU, ACU and oscillator
// keep only their previous and current segment, so any read older than
// that panics; the fuzz target checks no such read happens, that Now()
// never decreases (state loads only step forward here), and that α stays
// in [0, AlphaMax]: the accuracy accumulators stay in [0, satUnits].
func FuzzClockOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := sim.New(1)
		u := New(s, oscillator.New(s, oscillator.TCXO(10e6), "fuzz"))
		where := "setup"
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panic: %v", where, r)
			}
		}()
		prev := u.Now()
		for i := 0; i+clockOpSize <= len(prog) && i/clockOpSize < maxClockOps; i += clockOpSize {
			kind, p := prog[i]%numClockOps, int64(prog[i]>>3)
			arg := uint16(prog[i+2])<<8 | uint16(prog[i+3])
			s.RunUntil(s.Now() + advanceS(prog[i+1]))
			where = fmt.Sprintf("op %d (kind %d, p %d, arg %#x) at t=%v", i/clockOpSize, kind, p, arg, s.Now())
			switch kind {
			case opSetRate:
				u.SetRatePPB(int64(int16(arg)) * 10) // ±328 ppm
			case opAmortize:
				u.Amortize(timefmt.Duration(int16(arg)), p*500) // ±2 ms; p = 0 is the default speed
			case opStepTo:
				u.StepTo(u.Now().Add(timefmt.Duration(arg)))
			case opSetAlpha:
				u.SetAlpha(timefmt.Duration(arg), timefmt.Duration(arg)*timefmt.Duration(p))
			case opDriftBound:
				u.SetDriftBoundPPB(int64(arg), p*2000)
			case opTrigger:
				su := u.SSU(int(p) % NumSSU)
				switch p % 3 {
				case 1:
					su = u.GPU(int(p) % NumGPU)
				case 2:
					su = u.APU(int(p) % NumAPU)
				}
				su.Trigger(arg&1 == 0)
			case opDuty:
				// Reprogram register p%NumDuty; every fourth op per
				// register leaves it disarmed.
				dt := u.Duty(int(p) % NumDuty)
				dt.Cancel()
				dt.Set(u.Now().Add(timefmt.Duration(arg)))
				if p/NumDuty%4 == 0 {
					dt.Cancel()
				}
			case opSnapshot:
				snap := u.Snapshot()
				am, ap := u.Alpha()
				if snap.Clock != u.Now() || snap.AlphaMinus != am || snap.AlphaPlus != ap {
					t.Fatalf("%s: snapshot %v %v/%v, registers %v %v/%v", where, snap.Clock, snap.AlphaMinus, snap.AlphaPlus, u.Now(), am, ap)
				}
			}
			now := u.Now()
			if now < prev {
				t.Fatalf("%s: clock went backwards: %v -> %v", where, prev, now)
			}
			prev = now
			// The 16-bit registers saturate at AlphaMax as long as the
			// accumulators behind them stay in [0, satUnits].
			if am, ap := u.acu.unitsAt(u.tick()); am < 0 || am > satUnits || ap < 0 || ap > satUnits {
				t.Fatalf("%s: accuracy accumulators %d/%d outside [0, %d]", where, am, ap, satUnits)
			}
		}
	})
}
