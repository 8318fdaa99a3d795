// Package sim is a deterministic discrete-event simulation kernel.
//
// Events carry a firing time in simulated "true" seconds (float64; see
// DESIGN.md §4 for the precision argument) and fire in time order, with
// insertion order breaking ties so runs are reproducible bit-for-bit.
//
// Scheduling is allocation-free in steady state: Event storage comes
// from a per-simulator free list and is recycled once an event has fired
// or a cancelled event has drained from the queue (see queue.go for the
// pending-event-set layout). A handle therefore identifies one
// scheduling only — once the event has fired, Cancel and Pending on the
// retained handle are no-ops at best and may observe a recycled
// scheduling. Callers that cache handles across firings must clear them
// when the callback runs (every retention site in this repository does;
// Ticker manages its own handle the same way).
package sim

import (
	"fmt"
	"math"

	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// Event lifecycle states. A pooled Event cycles
// free → pending → (firing|cancelled) → free.
const (
	stateFree uint8 = iota
	statePending
	stateFiring
	stateCancelled
)

// compactFloor is the minimum tombstone count before Cancel considers
// compacting the queue; below it, lazy pop-time skipping is cheaper than
// re-heapifying.
const compactFloor = 64

// Event is a scheduled callback. The Cancel method of the returned handle
// prevents a pending event from firing.
type Event struct {
	fn    func()
	owner *Simulator
	idx   uint32 // position in owner.events, stable for the Event's lifetime
	state uint8
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The cancelled entry stays in the
// queue as an O(1) tombstone and is recycled when it surfaces at pop
// time (or at the next compaction).
func (e *Event) Cancel() {
	if e == nil || e.state != statePending {
		return
	}
	e.state = stateCancelled
	s := e.owner
	s.tmCancelled.Inc()
	s.tombstones++
	if s.tombstones >= compactFloor && s.tombstones > len(s.queue)/2 {
		s.compact()
	}
}

// Pending reports whether the event is still scheduled.
func (e *Event) Pending() bool { return e != nil && e.state == statePending }

// Simulator owns the event queue and the current simulated time.
// The zero value is not usable; call New.
type Simulator struct {
	now       float64
	seq       uint64
	queue     []node
	root      *RNG
	fired     uint64
	lastFired float64 // firing time of the most recent event

	// events is the arena the queue's pointer-free nodes index into;
	// free lists the recycled entries ready for reuse.
	events     []*Event
	free       []*Event
	tombstones int

	// tr and reg are the shard's observability scope (see Observe):
	// every component built on this simulator reports to them.
	tr  *trace.Tracer
	reg *telemetry.Registry

	// Kernel telemetry handles. All nil when telemetry is off; their
	// methods are nil-receiver no-ops, so the hot paths pay one
	// predictable branch each.
	tmScheduled *telemetry.Counter
	tmFired     *telemetry.Counter
	tmCancelled *telemetry.Counter
	tmDepth     *telemetry.Gauge
}

// New creates a Simulator whose stochastic components derive their RNG
// streams from seed.
func New(seed uint64) *Simulator {
	return &Simulator{root: NewRNG(seed)}
}

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// RNG derives a named deterministic random stream for one component.
func (s *Simulator) RNG(label string) *RNG { return s.root.Derive(label) }

// EventCount returns the number of events fired so far (for diagnostics).
func (s *Simulator) EventCount() uint64 { return s.fired }

// LastFiredAt returns the simulated time of the most recently fired
// event (0 before any event fires). The sharded kernel's telemetry uses
// it to expose per-shard window lag — how far behind the group clock a
// shard went idle.
func (s *Simulator) LastFiredAt() float64 { return s.lastFired }

// Observe attaches the simulator's observability scope: the tracer and
// telemetry registry that every component built on this simulator
// reports to (either may be nil — a nil tracer and a nil registry's
// handles are no-ops). Components resolve their handles once, in their
// constructors, so call Observe before building anything on s. It also
// registers the kernel's own metrics on reg: events scheduled, fired and
// cancelled, the event-queue depth gauge (with high-water mark), and
// snapshot-time pool-occupancy gauges (arena size and free-list length)
// that cost nothing between captures.
func (s *Simulator) Observe(tr *trace.Tracer, reg *telemetry.Registry) {
	s.tr, s.reg = tr, reg
	s.tmScheduled = reg.Counter("sim.events_scheduled")
	s.tmFired = reg.Counter(telemetry.MetricEventsFired)
	s.tmCancelled = reg.Counter("sim.events_cancelled")
	s.tmDepth = reg.Gauge(telemetry.MetricQueueDepth)
	reg.GaugeFunc("sim.pool_events", func() float64 { return float64(len(s.events)) })
	reg.GaugeFunc("sim.pool_free", func() float64 { return float64(len(s.free)) })
}

// Tracer returns the scope's tracer (nil when tracing is off).
func (s *Simulator) Tracer() *trace.Tracer { return s.tr }

// Telemetry returns the scope's registry (nil when telemetry is off).
func (s *Simulator) Telemetry() *telemetry.Registry { return s.reg }

// alloc takes an Event from the free list, growing the arena only when
// the list is empty (steady state never grows it).
func (s *Simulator) alloc(fn func()) *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{owner: s, idx: uint32(len(s.events))}
		s.events = append(s.events, e)
	}
	e.fn = fn
	e.state = statePending
	return e
}

// release returns a fired or drained-cancelled Event to the free list.
func (s *Simulator) release(e *Event) {
	e.fn = nil
	e.state = stateFree
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute time t (which must not be in the
// past, nor NaN) and returns a cancellable handle. −0 schedules at +0.
func (s *Simulator) At(t float64, fn func()) *Event {
	s.checkTime(t)
	e := s.alloc(fn)
	s.pushNode(node{key: timeKey(t), seq: s.seq, idx: e.idx})
	s.seq++
	return e
}

// checkTime panics unless t ≥ now, which rejects NaN too.
func (s *Simulator) checkTime(t float64) {
	if !(t >= s.now) {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, s.now))
	}
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now+d, fn)
}

// rearm re-pushes a currently-firing event at absolute time t, reusing
// its storage. Only legal from within the event's own callback (Ticker
// uses it to reschedule without allocating).
func (s *Simulator) rearm(e *Event, t float64) {
	s.checkTime(t)
	e.state = statePending
	s.pushNode(node{key: timeKey(t), seq: s.seq, idx: e.idx})
	s.seq++
}

// Every schedules fn every period seconds starting at start, until the
// returned handle is cancelled. fn sees the simulator clock already
// advanced to its firing time.
func (s *Simulator) Every(start, period float64, fn func()) *Ticker {
	t := &Ticker{sim: s, period: period, fn: fn}
	t.ev = s.At(start, t.fire)
	return t
}

// Ticker is a repeating event created by Every. It owns a single pooled
// Event that is re-pushed in place every period.
type Ticker struct {
	sim    *Simulator
	period float64
	fn     func()
	ev     *Event
	done   bool
}

func (t *Ticker) fire() {
	if t.done {
		return
	}
	t.fn()
	if t.done { // fn may have stopped us
		t.ev = nil
		return
	}
	t.sim.rearm(t.ev, t.sim.now+t.period)
}

// Stop cancels future firings. Stopping an already-stopped ticker, or
// stopping from within the callback, is safe.
func (t *Ticker) Stop() {
	t.done = true
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

// Run processes events until the queue is empty. It returns the time
// of the last fired event.
func (s *Simulator) Run() float64 {
	s.fireThrough(math.Inf(1))
	return s.now
}

// RunUntil processes events with firing times <= horizon, then stops with
// the clock at horizon. Events beyond the horizon remain queued.
func (s *Simulator) RunUntil(horizon float64) float64 {
	s.fireThrough(horizon)
	if s.now < horizon {
		s.now = horizon
	}
	return s.now
}

// fireThrough pops and fires every event due at or before horizon,
// recycling the tombstones it pops on the way.
func (s *Simulator) fireThrough(horizon float64) {
	for len(s.queue) > 0 && s.queue[0].at() <= horizon {
		n := s.popNode()
		e := s.events[n.idx]
		if e.state == stateCancelled {
			s.tombstones--
			s.release(e)
			continue
		}
		at := n.at()
		s.now = at
		s.fired++
		s.lastFired = at
		s.tmFired.Inc()
		e.state = stateFiring
		e.fn()
		if e.state == stateFiring { // not re-armed by its own callback
			s.release(e)
		}
	}
}
