package discipline

import (
	"math"
	"math/rand"
	"testing"

	"ntisim/internal/interval"
	"ntisim/internal/timefmt"
)

func st(s float64) timefmt.Stamp     { return timefmt.Stamp(timefmt.DurationFromSeconds(s)) }
func dur(s float64) timefmt.Duration { return timefmt.DurationFromSeconds(s) }

// oracle simulates a drifting local clock disciplined by d: true time
// advances in 1 s rounds; four truth-anchored peers provide ±20 µs
// intervals with 2 µs gaussian stamp noise; the commanded correction
// and rate delta are applied in full before the next round (the
// synchronizer's amortization completes µs-scale corrections well
// within a round). It returns the absolute post-correction clock error
// per round and the final effective rate error in ppb.
func oracle(t *testing.T, d Discipline, offS, driftPPB float64, rounds int) (errs []float64, ratePPB float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	clockErr := offS   // C − t [s]
	ratePPB = driftPPB // effective local rate error [ppb]
	for k := 0; k < rounds; k++ {
		tTrue := float64(k + 1)
		clockErr += ratePPB * 1e-9 // one second elapsed
		now := st(tTrue + clockErr)
		ivs := []interval.Interval{interval.New(now, dur(2e-3), dur(2e-3))}
		for p := 0; p < 4; p++ {
			ref := st(tTrue + rng.NormFloat64()*2e-6)
			ivs = append(ivs, interval.New(ref, dur(20e-6), dur(20e-6)))
		}
		act, ok := d.Step(Sample{Round: uint32(k), Now: now, Intervals: ivs, F: 1})
		if !ok {
			t.Fatalf("round %d: %s did not converge", k, d.Name())
		}
		// Requirement (A): whatever the filter does to the reference,
		// the interval must keep containing true time.
		if !act.Interval.Contains(st(tTrue)) {
			t.Fatalf("round %d: %s interval %v lost containment of truth %v",
				k, d.Name(), act.Interval, st(tTrue))
		}
		clockErr += act.Interval.Ref.Sub(now).Seconds()
		ratePPB += float64(act.RateDeltaPPB)
		errs = append(errs, math.Abs(clockErr))
	}
	return errs, ratePPB
}

// TestDisciplinesConvergeOnDriftingClock runs every registered
// discipline against the synthetic oracle: 500 µs initial offset,
// 500 ppb residual drift. All of them must pull the clock into the
// few-µs regime and keep it there.
func TestDisciplinesConvergeOnDriftingClock(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f, ok := Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) failed", name)
			}
			d := f()
			errs, _ := oracle(t, d, 500e-6, 500, 80)
			worst := 0.0
			for _, e := range errs[len(errs)-10:] {
				if e > worst {
					worst = e
				}
			}
			if worst > 20e-6 {
				t.Errorf("%s: steady-state error %v s, want < 20 µs (initial 500 µs)", name, worst)
			}
			// errs[0] is already post-correction: every discipline must
			// have engaged on the very first round (the PI loop's
			// proportional branch removes KP=60% of it, the offset
			// filters nearly all).
			if errs[0] > 250e-6 {
				t.Errorf("%s: first-round error %v s, want at least half the 500 µs initial offset removed", name, errs[0])
			}
		})
	}
}

// TestPIPLLStealsRate checks the type-II loop actually does frequency
// discipline: under a 2000 ppb drift the integral branch must absorb
// most of the rate error, something the pure offset filters cannot do.
func TestPIPLLStealsRate(t *testing.T) {
	d := NewPIPLL(NewKalman())
	_, rate := oracle(t, d, 100e-6, 2000, 150)
	if math.Abs(rate) > 1000 {
		t.Errorf("effective rate error %v ppb after 150 rounds, want < 1000 (started at 2000)", rate)
	}
}

// TestStepNoQuorum: a round whose intervals admit no fault-tolerant
// intersection must report ok=false and leave the filter able to
// continue on the next good round.
func TestStepNoQuorum(t *testing.T) {
	disjoint := []interval.Interval{
		interval.New(st(1), dur(1e-6), dur(1e-6)),
		interval.New(st(10), dur(1e-6), dur(1e-6)),
		interval.New(st(20), dur(1e-6), dur(1e-6)),
	}
	for _, name := range Names() {
		f, _ := Lookup(name)
		d := f()
		if _, ok := d.Step(Sample{Round: 0, Now: st(1), Intervals: disjoint, F: 0}); ok {
			t.Errorf("%s: disjoint round converged", name)
		}
		good := []interval.Interval{
			interval.New(st(2), dur(1e-3), dur(1e-3)),
			interval.New(st(2.00001), dur(20e-6), dur(20e-6)),
			interval.New(st(2.00001), dur(20e-6), dur(20e-6)),
		}
		if _, ok := d.Step(Sample{Round: 1, Now: st(2), Intervals: good, F: 0}); !ok {
			t.Errorf("%s: good round after bad round did not converge", name)
		}
	}
}

// TestResetRecovers: Reset must discard filter state so a discipline
// can be re-synchronized after a clock step.
func TestResetRecovers(t *testing.T) {
	for _, name := range Names() {
		f, _ := Lookup(name)
		d := f()
		oracle(t, d, 500e-6, 500, 20)
		d.Reset()
		errs, _ := oracle(t, d, 500e-6, 500, 40)
		if errs[len(errs)-1] > 20e-6 {
			t.Errorf("%s: did not re-converge after Reset: %v s", name, errs[len(errs)-1])
		}
	}
}

// TestRegistryRoundTrip pins the registry invariants the trace wire
// format and CLI front-ends rely on.
func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("registry has %d disciplines, want >= 4", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, n := range names {
		f, ok := Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) failed", n)
		}
		if d := f(); d.Name() != n {
			t.Errorf("Lookup(%q)().Name() = %q", n, d.Name())
		}
		id := ID(n)
		if id == IDCustom {
			t.Errorf("ID(%q) = IDCustom", n)
		}
		if NameOf(id) != n {
			t.Errorf("NameOf(ID(%q)) = %q", n, NameOf(id))
		}
	}
	if _, ok := Lookup("no-such-filter"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if ID("no-such-filter") != IDCustom {
		t.Error("unknown name should map to IDCustom")
	}
	if NameOf(IDCustom) != "custom" || NameOf(-1) != "custom" {
		t.Error("out-of-registry IDs should read back as custom")
	}
}

// TestWrapConverge: an arbitrary convergence function plugs in as a
// stateless discipline; the empty name reads back as "custom".
func TestWrapConverge(t *testing.T) {
	d := WrapConverge("", ConvergeFunc(interval.MarzulloMidpoint))
	if d.Name() != "custom" {
		t.Errorf("Name() = %q, want custom", d.Name())
	}
	ivs := []interval.Interval{
		interval.New(st(5), dur(1e-3), dur(1e-3)),
		interval.New(st(5.0001), dur(1e-3), dur(1e-3)),
	}
	act, ok := d.Step(Sample{Now: st(5), Intervals: ivs, F: 0})
	if !ok {
		t.Fatal("Step failed")
	}
	want, _ := interval.MarzulloMidpoint(ivs, 0)
	if act.Interval != want {
		t.Errorf("wrapped result %v, want %v", act.Interval, want)
	}
	if act.RateDeltaPPB != 0 {
		t.Errorf("wrapped converge function commanded a rate delta: %d", act.RateDeltaPPB)
	}
}
