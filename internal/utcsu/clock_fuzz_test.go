package utcsu

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"ntisim/internal/fixpt"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// A FuzzClockOps program is a sequence of clockOpSize-byte operations:
//
//	[0] kind (low 3 bits) and a parameter p (high 5 bits)
//	[1] time advance before the operation: the top two bits pick the
//	    unit (advanceUnits), the low six the count
//	[2:4] a big-endian 16-bit argument
//
// A program with a trailing partial operation runs in reference mode:
// its two coarse advance units shrink so that 256 operations span at
// most 256·63·5 µs ≈ 81 ms, 8.1e5 ticks of the 10 MHz TCXO and before
// its first 1 s drift update, and refUTCSU checks every register
// bit-exactly after every operation.
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

// advanceUnits are the seconds per count of an advance byte's units,
// [reference mode][unit]: none (same instant), 10 ns (inside one 100 ns
// tick of the 10 MHz TCXO), then 1 ms and 50 ms (which cross the
// oscillator's 1 s drift updates and amortization ends) or, in
// reference mode, 1 µs and 5 µs.
var advanceUnits = [2][4]float64{{0, 10e-9, 1e-3, 50e-3}, {0, 10e-9, 1e-6, 5e-6}}

// FuzzClockOps drives a UTCSU on a TCXO through random clock commands,
// sample triggers, duty timers and snapshots at nondecreasing times,
// several often inside one oscillator tick. The register timeline and
// the oscillator keep only their previous and current segment, so any
// read older than that panics; the fuzz target checks no such read
// happens, that Now() never decreases (state loads only step forward
// here), and that the accuracy accumulators stay in [0, satUnits], so
// α stays in [0, AlphaMax]. In reference mode it also compares Now(),
// Alpha(), Snapshot(), every trigger's sample and the tick each duty
// timer fires on with refUTCSU after every operation.
func FuzzClockOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := sim.New(1)
		osc := oscillator.New(s, oscillator.TCXO(10e6), "fuzz")
		u := New(s, osc)
		refMode := len(prog)%clockOpSize != 0
		units := advanceUnits[0]
		if refMode {
			units = advanceUnits[1]
		}
		ref := newRefUTCSU(osc.NominalHz())
		var fired [NumDuty][]uint64
		for i := range fired {
			u.Duty(i).OnFire(func() { fired[i] = append(fired[i], u.tick()) })
		}
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
			adv := prog[i+1]
			s.RunUntil(s.Now() + float64(adv&63)*units[adv>>6])
			if refMode {
				ref.advance(u.tick())
			}
			where = fmt.Sprintf("op %d (kind %d, p %d, arg %#x) at t=%v", i/clockOpSize, kind, p, arg, s.Now())
			switch kind {
			case opSetRate:
				ppb := int64(int16(arg)) * 10 // ±328 ppm
				u.SetRatePPB(ppb)
				ref.setRatePPB(ppb)
			case opAmortize:
				d := timefmt.Duration(int16(arg)) // ±2 ms; p = 0 is the default speed
				u.Amortize(d, p*500)
				ref.amortize(d, p*500)
			case opStepTo:
				v := u.Now().Add(timefmt.Duration(arg))
				u.StepTo(v)
				ref.stepTo(v)
			case opSetAlpha:
				m, pl := timefmt.Duration(arg), timefmt.Duration(arg)*timefmt.Duration(p)
				u.SetAlpha(m, pl)
				ref.setAlpha(m, pl)
			case opDriftBound:
				u.SetDriftBoundPPB(int64(arg), p*2000)
				ref.setDriftBoundPPB(int64(arg), p*2000)
			case opTrigger:
				su := u.SSU(int(p) % NumSSU)
				switch p % 3 {
				case 1:
					su = u.GPU(int(p) % NumGPU)
				case 2:
					su = u.APU(int(p) % NumAPU)
				}
				su.Trigger(arg&1 == 0)
				if stamp, am, ap, _ := su.Read(); refMode && arg&1 == 0 {
					// The synchronizer latches the registers at the next tick.
					next := *ref
					next.edge()
					if want, wm, wp := next.read(); stamp != want || am != wm || ap != wp {
						t.Fatalf("%s: sample %v %v/%v, reference %v %v/%v", where, stamp, am, ap, want, wm, wp)
					}
				}
			case opDuty:
				// Reprogram register p%NumDuty; every fourth op per
				// register leaves it disarmed.
				k := int(p) % NumDuty
				dt := u.Duty(k)
				dt.Cancel()
				target := u.Now().Add(timefmt.Duration(arg))
				dt.Set(target)
				ref.duty[k].pending, ref.duty[k].target = true, target
				if p/NumDuty%4 == 0 {
					dt.Cancel()
					ref.duty[k].pending = false
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
			n := u.tick()
			um, up := u.segAt(n).alphaAt(n)
			if um < 0 || um > satUnits || up < 0 || up > satUnits {
				t.Fatalf("%s: accuracy accumulators %d/%d outside [0, %d]", where, um, up, satUnits)
			}
			if !refMode {
				continue
			}
			// The register contents, to the 2⁻⁶⁴ s unit, then what
			// software reads of them.
			if c := u.valueAt(n); c != ref.clock || um != ref.alpha[0] || up != ref.alpha[1] {
				t.Fatalf("%s: tick %d: registers %v %d/%d, reference %v %d/%d", where, n, c, um, up, ref.clock, ref.alpha[0], ref.alpha[1])
			}
			am, ap := u.Alpha()
			snap := u.Snapshot()
			want, wm, wp := ref.read()
			if now != want || am != wm || ap != wp || snap.Clock != want || snap.AlphaMinus != wm || snap.AlphaPlus != wp {
				t.Fatalf("%s: tick %d: Now %v, Alpha %v/%v, snapshot %v %v/%v; reference %v %v/%v",
					where, n, now, am, ap, snap.Clock, snap.AlphaMinus, snap.AlphaPlus, want, wm, wp)
			}
			for i := range fired {
				if !slices.Equal(fired[i], ref.duty[i].fired) {
					t.Fatalf("%s: duty timer %d fired on ticks %v, reference %v", where, i, fired[i], ref.duty[i].fired)
				}
			}
		}
	})
}

// refUTCSU is the reference-mode oracle: the LTU clock and both ACU
// accumulators of paper §3.3 as plain registers, stepped one
// oscillator tick at a time, with no segments. Each edge adds the
// control registers in force: the clock adds the rate register's
// augend plus the amortization delta while one runs, and the α⁻/α⁺
// accumulators add their deterioration rates plus/minus that delta,
// saturating at satUnits and zero-masked. A write latches at the next
// edge: that edge still adds what was in force, a state load (StepTo,
// SetAlpha) then replaces the sum, and written control registers are
// in force from the edge after it on.
type refUTCSU struct {
	hz    float64
	tick  uint64
	clock fixpt.Time // the 2⁻⁶⁴ s clock accumulator
	alpha [2]int64   // α⁻, α⁺ in 2⁻⁶⁴ s units

	inForce, written refCtl
	amortEnd         uint64 // tick on which a running amortization ends

	loadClock, loadAlpha bool // state loads latched for the next edge
	clockLoad            fixpt.Time
	alphaLoad            [2]int64

	duty [NumDuty]refDuty
}

// refCtl holds the control registers.
type refCtl struct {
	augend uint64   // rate register
	amort  int64    // signed amortization delta, 0 when none runs
	det    [2]int64 // α⁻, α⁺ deterioration per tick
}

type refDuty struct {
	pending bool
	target  timefmt.Stamp
	fired   []uint64 // ticks the register fired on
}

func newRefUTCSU(hz float64) *refUTCSU {
	r := &refUTCSU{hz: hz}
	r.written.augend = fixpt.AugendForRate(hz, 1)
	r.inForce = r.written
	return r
}

// edge steps every register to the next tick.
func (r *refUTCSU) edge() {
	c := &r.inForce
	aug := min(max(int64(c.augend)+c.amort, int64(fixpt.AugendUnit)), 2*int64(c.augend))
	frac, carry := bits.Add64(r.clock.Frac, uint64(aug), 0)
	r.clock = fixpt.Time{Sec: r.clock.Sec + int64(carry), Frac: frac}
	r.alpha[0] = min(max(r.alpha[0]+c.det[0]+c.amort, 0), satUnits)
	r.alpha[1] = min(max(r.alpha[1]+c.det[1]-c.amort, 0), satUnits)
	r.tick++
	if r.loadClock {
		r.clock, r.loadClock = r.clockLoad, false
	}
	if r.loadAlpha {
		r.alpha, r.loadAlpha = r.alphaLoad, false
	}
	r.inForce = r.written
	if r.written.amort != 0 && r.tick == r.amortEnd {
		r.written.amort = 0 // the amortization duty timer's write
	}
}

// advance steps to tick n, firing each pending duty timer on the first
// tick its target is reached.
func (r *refUTCSU) advance(n uint64) {
	for r.tick < n {
		r.edge()
		c := timefmt.StampFromTime(r.clock)
		for i := range r.duty {
			if d := &r.duty[i]; d.pending && c >= d.target {
				d.pending = false
				d.fired = append(d.fired, r.tick)
			}
		}
	}
}

// read returns the registers as software reads them.
func (r *refUTCSU) read() (timefmt.Stamp, timefmt.Alpha, timefmt.Alpha) {
	return timefmt.StampFromTime(r.clock), timefmt.Alpha(min(r.alpha[0]>>40, 0xFFFF)), timefmt.Alpha(min(r.alpha[1]>>40, 0xFFFF))
}

func (r *refUTCSU) setRatePPB(ppb int64) {
	r.written.augend = max(fixpt.AugendForRate(r.hz, 1+float64(ppb)*1e-9), fixpt.AugendUnit)
}

func (r *refUTCSU) stepTo(v timefmt.Stamp) {
	r.written.amort = 0
	r.loadClock, r.clockLoad = true, v.Time()
}

func (r *refUTCSU) setAlpha(minus, plus timefmt.Duration) {
	load := func(d timefmt.Duration) int64 { return int64(min(max(d, 0), 0xFFFF)) << 40 }
	r.loadAlpha, r.alphaLoad = true, [2]int64{load(minus), load(plus)}
}

func (r *refUTCSU) setDriftBoundPPB(minus, plus int64) {
	r.written.det = [2]int64{
		int64(fixpt.AugendForRate(r.hz, float64(minus)*1e-9)),
		int64(fixpt.AugendForRate(r.hz, float64(plus)*1e-9)),
	}
}

// amortize programs the extra augend and the tick its duty timer ends
// it on: the delta, in 2⁻⁶⁴ s units, divided by the extra augend, ticks
// after the write takes effect at the next tick.
func (r *refUTCSU) amortize(delta timefmt.Duration, speedPPM int64) {
	r.written.amort = 0
	if speedPPM <= 0 {
		speedPPM = DefaultAmortPPM
	}
	aug := max(fixpt.AugendForRate(r.hz, float64(speedPPM)*1e-6), fixpt.AugendUnit)
	if aug >= r.written.augend {
		aug = r.written.augend - fixpt.AugendUnit // keep the clock monotonic
	}
	mag := min(delta.Abs(), 1<<24-1) // just under 1 s
	if delta == 0 || aug == 0 || uint64(mag)<<40 < aug {
		return
	}
	r.written.amort = int64(aug)
	if delta < 0 {
		r.written.amort = -int64(aug)
	}
	r.amortEnd = r.tick + 1 + uint64(mag)<<40/aug
}
