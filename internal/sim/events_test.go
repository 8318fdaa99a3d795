package sim

// Tests for the pooled allocation-free pending-event set: tombstone
// cancellation, compaction, Ticker stop races, steady-state
// allocation-freedom, and a firing-order oracle over random
// schedule/cancel sequences.

import (
	"sort"
	"testing"
	"unsafe"
)

// TestCancelFromWithinCallback covers the tombstone path when the
// cancelling code runs inside another event's callback: the cancelled
// event is already in the heap and must be skipped at pop time.
func TestCancelFromWithinCallback(t *testing.T) {
	s := New(1)
	var fired []string
	var victim *Event
	s.At(1, func() {
		fired = append(fired, "canceller")
		victim.Cancel()
	})
	victim = s.At(2, func() { fired = append(fired, "victim") })
	s.At(3, func() { fired = append(fired, "survivor") })
	s.Run()
	if len(fired) != 2 || fired[0] != "canceller" || fired[1] != "survivor" {
		t.Errorf("fired = %v, want [canceller survivor]", fired)
	}
	if victim.state == statePending {
		t.Error("victim still pending after cancel")
	}
}

// TestCancelSelfFromCallback: cancelling the event that is currently
// firing is a no-op (it already fired), and must not corrupt the pool.
func TestCancelSelfFromCallback(t *testing.T) {
	s := New(1)
	count := 0
	var e *Event
	e = s.At(1, func() {
		count++
		e.Cancel() // no-op: the event is firing, not pending
	})
	s.At(2, func() { count += 10 })
	s.Run()
	if count != 11 {
		t.Errorf("count = %d, want 11", count)
	}
}

// TestTickerStopIsIdempotent guards the nil-ev path: stopping twice,
// and stopping after a stop-from-within-callback, must be no-ops.
func TestTickerStopIsIdempotent(t *testing.T) {
	s := New(1)
	count := 0
	tk := s.Every(1, 1, func() { count++ })
	s.RunUntil(3.5)
	tk.Stop()
	tk.Stop() // second stop: ev is already nil
	s.RunUntil(10)
	if count != 3 {
		t.Errorf("ticker fired %d times, want 3", count)
	}
}

// TestTickerStopFromWithinCallback stops the ticker from its own
// callback; the firing event must not be rescheduled, and a later Stop
// must not cancel an unrelated recycled event.
func TestTickerStopFromWithinCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = s.Every(1, 1, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	// Unrelated events that recycle pool storage after the ticker dies.
	for i := 4; i < 10; i++ {
		s.At(float64(i)+0.5, func() {})
	}
	s.Run()
	tk.Stop() // stale stop long after the pooled event was recycled
	if count != 3 {
		t.Errorf("ticker fired %d times, want 3", count)
	}
}

// TestTickerStopThenFireSameInstant: Stop runs at the exact simulated
// time of the next ticker firing but earlier in tie-break order; the
// tombstoned event must not fire.
func TestTickerStopThenFireSameInstant(t *testing.T) {
	s := New(1)
	count := 0
	tk := s.Every(2, 2, func() { count++ }) // fires at 2, 4, 6, ...
	// Scheduled before the ticker exists? No — after, but at t=4 the
	// ticker's re-push from its t=2 firing carries a later seq than this
	// event only if this is scheduled first. Schedule the stop at t=4
	// before the ticker's t=2 callback re-pushes: seq(stop) < seq(repush),
	// so the stop wins the tie and the t=4 firing must be cancelled.
	s.At(4, func() { tk.Stop() })
	s.Run()
	if count != 1 {
		t.Errorf("ticker fired %d times, want 1 (stop ties with second firing)", count)
	}
}

// TestEventPoolReuse pins the free-list: steady-state schedule/fire must
// not grow the event arena.
func TestEventPoolReuse(t *testing.T) {
	s := New(1)
	cb := func() {}
	for i := 0; i < 100; i++ {
		s.After(1, cb)
		s.Run()
	}
	arena := len(s.events)
	for i := 0; i < 1000; i++ {
		s.After(1, cb)
		s.Run()
	}
	if got := len(s.events); got != arena {
		t.Errorf("event arena grew from %d to %d during steady state", arena, got)
	}
}

// TestZeroAllocAfterFire asserts the allocation-free property for the
// steady-state schedule→fire cycle.
func TestZeroAllocAfterFire(t *testing.T) {
	s := New(1)
	cb := func() {}
	for i := 0; i < 64; i++ { // warm the pool and the queue's capacity
		s.After(1, cb)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(1, cb)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state After+fire: %v allocs/op, want 0", allocs)
	}
}

// TestZeroAllocTicker asserts Ticker periods re-push the pooled event
// without allocating.
func TestZeroAllocTicker(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(1, 1, func() { n++ })
	horizon := 10.0
	s.RunUntil(horizon)
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 10
		s.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Errorf("steady-state ticker periods: %v allocs/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}

// TestZeroAllocChain asserts that a steady-state Chain (out of order,
// with a tie) and its firings allocate nothing, and that holding a
// successor keeps an Event at 48 bytes.
func TestZeroAllocChain(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 48 {
		t.Errorf("Event is %d bytes, want at most 48", size)
	}
	s := New(1)
	fired := 0
	cb := func() { fired++ }
	offsets := []float64{3e-6, 1e-6, 2e-6, 2e-6, 0}
	ts := make([]float64, len(offsets))
	fns := []func(){cb, cb, cb, cb, cb}
	chain := func() {
		for i, d := range offsets {
			ts[i] = s.Now() + d
		}
		s.Chain(ts, fns)
		s.Run()
	}
	chain() // warm the pool, the sort buffer and the run
	allocs := testing.AllocsPerRun(1000, chain)
	if allocs != 0 {
		t.Errorf("steady-state Chain+fire: %v allocs/op, want 0", allocs)
	}
	if want := len(offsets) * 1002; fired != want {
		t.Errorf("fired %d events, want %d", fired, want)
	}
}

// TestZeroAllocCancel asserts the tombstone path itself is
// allocation-free: schedule two, cancel one, drain.
func TestZeroAllocCancel(t *testing.T) {
	s := New(1)
	cb := func() {}
	for i := 0; i < 64; i++ {
		s.After(1, cb)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		keep := s.After(1, cb)
		kill := s.After(2, cb)
		kill.Cancel()
		s.Run()
		_ = keep
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+cancel+fire: %v allocs/op, want 0", allocs)
	}
}

// TestCompaction drives tombstones past half the queue so Cancel
// triggers an in-place compaction, then verifies both firing order and
// that the cancelled events were recycled.
func TestCompaction(t *testing.T) {
	s := New(1)
	var fired []int
	events := make([]*Event, 0, 4*compactFloor)
	for i := 0; i < 4*compactFloor; i++ {
		i := i
		events = append(events, s.At(float64(i), func() { fired = append(fired, i) }))
	}
	// Cancel ~3/4 of the queue: crosses the tombstones > len/2 threshold.
	for i := 0; i < len(events); i++ {
		if i%4 != 0 {
			events[i].Cancel()
		}
	}
	if s.tombstones != 0 && s.tombstones > len(s.queue)/2 {
		t.Errorf("compaction did not run: %d tombstones, queue %d", s.tombstones, len(s.queue))
	}
	s.Run()
	if len(fired) != compactFloor {
		t.Fatalf("fired %d events, want %d", len(fired), compactFloor)
	}
	for k, v := range fired {
		if v != 4*k {
			t.Fatalf("fired[%d] = %d, want %d (order broken by compaction)", k, v, 4*k)
		}
	}
}

// TestQueueOracle compares the queue's firing order against a
// sort.SliceStable reference over random schedule/cancel sequences,
// including duplicate timestamps (tie-break by insertion order).
func TestQueueOracle(t *testing.T) {
	for trial := uint64(0); trial < 40; trial++ {
		rng := NewRNG(trial)
		s := New(1)
		type sched struct {
			at        float64
			id        int
			cancelled bool
		}
		var oracle []sched
		var handles []*Event
		var got []int
		for op := 0; op < 300; op++ {
			if len(oracle) == 0 || rng.Float64() < 0.7 {
				// Coarse quantization makes duplicate timestamps common.
				at := float64(rng.Intn(40))
				id := len(oracle)
				oracle = append(oracle, sched{at: at, id: id})
				handles = append(handles, s.At(at, func() { got = append(got, id) }))
			} else {
				victim := rng.Intn(len(oracle))
				if !oracle[victim].cancelled {
					oracle[victim].cancelled = true
					handles[victim].Cancel()
					handles[victim].Cancel() // double-cancel is a no-op
				}
			}
		}
		s.Run()
		live := make([]sched, 0, len(oracle))
		for _, e := range oracle {
			if !e.cancelled {
				live = append(live, e)
			}
		}
		sort.SliceStable(live, func(i, j int) bool { return live[i].at < live[j].at })
		if len(got) != len(live) {
			t.Fatalf("trial %d: fired %d events, oracle says %d", trial, len(got), len(live))
		}
		for k := range live {
			if got[k] != live[k].id {
				t.Fatalf("trial %d: position %d fired id %d, oracle says %d", trial, k, got[k], live[k].id)
			}
		}
	}
}

// TestNestedSchedulingOracle mixes scheduling from inside callbacks with
// pre-run scheduling: events scheduled at the current instant from a
// callback must still respect global (at, seq) order.
func TestNestedSchedulingOracle(t *testing.T) {
	s := New(1)
	var got []float64
	for i := 10; i > 0; i-- {
		at := float64(i)
		s.At(at, func() {
			got = append(got, at)
			if at < 8 {
				inner := at + 0.5
				s.At(inner, func() { got = append(got, inner) })
			}
		})
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Errorf("interleaved nested events fired out of order: %v", got)
	}
	if len(got) != 17 {
		t.Errorf("fired %d events, want 17", len(got))
	}
}
