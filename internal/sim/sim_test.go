package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Errorf("tied events fired out of insertion order: %v", got)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(1, func() { fired = true })
	if e.state != statePending {
		t.Error("event should be pending")
	}
	e.Cancel()
	if e.state == statePending {
		t.Error("cancelled event still pending")
	}
	e.Cancel() // double-cancel is a no-op
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New(1)
	var got []int
	events := make([]*Event, 20)
	for i := 0; i < 20; i++ {
		i := i
		events[i] = s.At(float64(i), func() { got = append(got, i) })
	}
	for i := 1; i < 20; i += 2 {
		events[i].Cancel()
	}
	s.Run()
	for _, v := range got {
		if v%2 != 0 {
			t.Errorf("cancelled event %d fired", v)
		}
	}
	if len(got) != 10 {
		t.Errorf("fired %d events, want 10", len(got))
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New(1)
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(0.5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 1.5 {
		t.Errorf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

// TestChainPanics: a chain with a past (or NaN) time, or with more
// times than callbacks, panics before it schedules anything.
func TestChainPanics(t *testing.T) {
	nop := func() {}
	for name, ts := range map[string][]float64{
		"past":     {6, 1},
		"NaN":      {6, math.NaN()},
		"mismatch": {6, 7, 8},
	} {
		s := New(1)
		s.At(5, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Chain did not panic", name)
				}
			}()
			s.Chain(ts, []func(){nop, nop})
		})
		s.Run()
		if s.EventCount() != 1 {
			t.Errorf("%s: %d events fired, want only the caller", name, s.EventCount())
		}
	}
}

// TestSignedZeroAndNaN pins the two times the integer heap key must
// not take as they are: −0 schedules at +0 and keeps seq order with
// the +0 events, and NaN panics as a past time in At and in a ticker's
// re-arm.
func TestSignedZeroAndNaN(t *testing.T) {
	s := New(1)
	var got []int
	for i, at := range []float64{math.Copysign(0, -1), 0, 0} {
		s.At(at, func() {
			got = append(got, i)
			if math.Signbit(s.Now()) {
				t.Errorf("event %d: Now = −0, want +0", i)
			}
		})
	}
	s.At(1e-300, func() { got = append(got, 3) })
	s.Run()
	if len(got) != 4 || !sort.IntsAreSorted(got) {
		t.Errorf("fired %v, want [0 1 2 3]", got)
	}
	for name, schedule := range map[string]func(){
		"At":    func() { s.At(math.NaN(), func() {}) },
		"After": func() { s.After(math.NaN(), func() {}) },
		"Every": func() { s.Every(s.Now(), math.NaN(), func() {}); s.Run() },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			schedule()
		}()
	}
}

// TestRunInsideRunUntil checks that Run called from a callback during
// RunUntil fires every queued event, including those past the
// RunUntil horizon.
func TestRunInsideRunUntil(t *testing.T) {
	s := New(1)
	var got []float64
	for _, at := range []float64{2, 10} {
		s.At(at, func() { got = append(got, at) })
	}
	s.At(1, func() { s.Run() })
	s.RunUntil(5)
	if len(got) != 2 || got[1] != 10 || s.Now() != 10 {
		t.Errorf("fired %v, Now = %v; want [2 10], Now = 10", got, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunUntil(3)
	if len(got) != 3 {
		t.Errorf("fired %v, want events at 1..3", got)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v after RunUntil(3)", s.Now())
	}
	s.Run() // rest still queued
	if len(got) != 5 {
		t.Errorf("after Run fired %v", got)
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Errorf("Now = %v, want 10", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	count := 0
	tk := s.Every(1, 2, func() {
		count++
		if count == 5 {
			// Stop from within the callback.
		}
	})
	s.At(9.5, func() { tk.Stop() })
	s.Run()
	if count != 5 { // fires at 1,3,5,7,9
		t.Errorf("ticker fired %d times, want 5", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		s := New(42)
		r := s.RNG("x")
		var out []uint64
		for i := 0; i < 5; i++ {
			d := r.Float64() * 10
			s.After(d, func() { out = append(out, r.Uint64()) })
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	r := NewRNG(7)
	a := r.Derive("alpha")
	b := r.Derive("beta")
	a2 := NewRNG(7).Derive("alpha")
	if a.Uint64() != a2.Uint64() {
		t.Error("Derive not deterministic")
	}
	if a.Uint64() == b.Uint64() {
		t.Error("different labels should give different streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("normal stddev = %v", math.Sqrt(variance))
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(9)
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(3)
	}
	if mean := sum / float64(n); math.Abs(mean-3) > 0.1 {
		t.Errorf("exponential mean = %v", mean)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG(13)
	// Both regimes: Knuth product method (small mean) and the rounded
	// normal approximation (mean >= 30).
	for _, mean := range []float64{0.5, 6, 80, 5000} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / float64(n)
		// Standard error of the sample mean is sqrt(mean/n); 5 sigma.
		tol := 5 * math.Sqrt(mean/float64(n))
		if math.Abs(got-mean) > tol {
			t.Errorf("Poisson(%g) sample mean = %g, want +- %g", mean, got, tol)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive mean must give 0 arrivals")
	}
}

func TestRNGPoissonDeterminism(t *testing.T) {
	a, b := NewRNG(21), NewRNG(21)
	for i := 0; i < 1000; i++ {
		mean := 0.1 + float64(i%70)
		if va, vb := a.Poisson(mean), b.Poisson(mean); va != vb {
			t.Fatalf("draw %d diverged: %d vs %d", i, va, vb)
		}
	}
}

func TestRNGTruncNormalBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.TruncNormal(0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestRNGParetoBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Pareto(1.5, 0.001, 0.5)
		if v < 0.001-1e-12 || v > 0.5+1e-12 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(8)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) produced only %d distinct values", len(seen))
	}
}

// Property: all queued events with distinct times fire in sorted order.
func TestQuickEventOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(1)
		var fired []float64
		for _, v := range raw {
			at := float64(v)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkEventQueue measures the pending-event set under its
// steady-state workloads: a pure schedule→fire chain (flat and with 64
// pending), a ticker re-push loop, a schedule/cancel mix that exercises
// the tombstone path, and lan-32's DMA burst shape. Every one must
// report 0 allocs/op (the pool regression tests in events_test.go pin
// the same property).
func BenchmarkEventQueue(b *testing.B) {
	b.Run("burst", func(b *testing.B) {
		// The queue shape of the lan-32 cluster: about 170 standing far
		// events (timers, sync rounds) and, per broadcast frame, 31
		// receivers that each schedule an ascending run of 21 DMA word
		// events 400 ns apart behind a 100–400 ns uniform arbitration
		// offset. One op is one fired word.
		const receivers, words = 31, 21
		s := New(1)
		r := s.RNG("bench")
		nop := func() {}
		for i := 0; i < 170; i++ {
			s.At(1e6+r.Float64(), nop)
		}
		n := 0
		var frame func()
		frame = func() {
			for rx := 0; rx < receivers; rx++ {
				start := s.Now() + r.Uniform(100e-9, 400e-9)
				for w := 0; w < words; w++ {
					s.At(start+float64(w)*400e-9, nop)
				}
			}
			if n += receivers * words; n < b.N {
				s.After(10e-6, frame)
			}
		}
		b.ReportAllocs()
		s.After(0, frame)
		s.RunUntil(1e5)
	})
	b.Run("fire", func(b *testing.B) {
		s := New(1)
		r := s.RNG("bench")
		var fn func()
		n := 0
		fn = func() {
			n++
			if n < b.N {
				s.After(r.Float64(), fn)
			}
		}
		b.ReportAllocs()
		if b.N > 0 {
			s.After(0, fn)
		}
		s.Run()
	})
	b.Run("fire-fanout", func(b *testing.B) {
		// 64 events pending at all times: deeper heap, same chain.
		s := New(1)
		r := s.RNG("bench")
		var fn func()
		n := 0
		fn = func() {
			n++
			if n < b.N {
				s.After(1+r.Float64(), fn)
			}
		}
		for i := 0; i < 64 && i < b.N; i++ {
			s.After(r.Float64(), fn)
		}
		b.ReportAllocs()
		s.Run()
	})
	b.Run("ticker", func(b *testing.B) {
		s := New(1)
		n := 0
		s.Every(1, 1, func() { n++ })
		b.ReportAllocs()
		s.RunUntil(float64(b.N))
	})
	b.Run("schedule-cancel", func(b *testing.B) {
		s := New(1)
		r := s.RNG("bench")
		cb := func() {}
		var fn func()
		n := 0
		fn = func() {
			n++
			if n < b.N {
				// One survivor chains the benchmark; one victim is
				// tombstoned immediately.
				victim := s.After(2+r.Float64(), cb)
				s.After(r.Float64(), fn)
				victim.Cancel()
			}
		}
		b.ReportAllocs()
		if b.N > 0 {
			s.After(0, fn)
		}
		s.Run()
	})
}

// BenchmarkChainFanout is lan-32's queue shape under Chain: about 150
// standing far events and, per broadcast frame, 31 receivers that each
// chain 17 events 400 ns apart (16 DMA words and rx-done) behind a
// 100–400 ns uniform arbitration offset. One op is one fired event;
// it must report 0 allocs/op.
func BenchmarkChainFanout(b *testing.B) {
	const receivers, burst = 31, 17
	s := New(1)
	r := s.RNG("bench")
	nop := func() {}
	for i := 0; i < 150; i++ {
		s.At(1e6+r.Float64(), nop)
	}
	var ts [burst]float64
	var fns [burst]func()
	for i := range fns {
		fns[i] = nop
	}
	n := 0
	var frame func()
	frame = func() {
		for rx := 0; rx < receivers; rx++ {
			start := s.Now() + r.Uniform(100e-9, 400e-9)
			for w := range ts {
				ts[w] = start + float64(w)*400e-9
			}
			s.Chain(ts[:], fns[:])
		}
		if n += receivers * burst; n < b.N {
			s.After(10e-6, frame)
		}
	}
	b.ReportAllocs()
	s.After(0, frame)
	s.RunUntil(1e5)
}
