package sim

import (
	"math"
	"reflect"
	"testing"

	"ntisim/internal/telemetry"
)

// engine is what FuzzEventQueue drives: the Simulator and refEngine
// both implement it.
type engine interface {
	now() float64
	at(t float64, fn func()) (cancel func())
	chain(ts []float64, fns []func())
	every(start, period float64, fn func()) (stop func())
	runUntil(horizon float64)
	run()
	// counts returns EventCount, sim.events_scheduled, _fired and
	// _cancelled, sim.queue_depth's high-water mark and last value,
	// and the arena gauges sim.pool_events and sim.pool_free.
	counts() [8]float64
}

// simEngine adapts a Simulator with telemetry attached.
type simEngine struct {
	s   *Simulator
	reg *telemetry.Registry
}

func newSimEngine() *simEngine {
	e := &simEngine{s: New(1), reg: telemetry.New()}
	e.s.Observe(nil, e.reg)
	return e
}

func (e *simEngine) now() float64 { return e.s.Now() }
func (e *simEngine) at(t float64, fn func()) func() {
	return e.s.At(t, fn).Cancel
}
func (e *simEngine) chain(ts []float64, fns []func()) { e.s.Chain(ts, fns) }
func (e *simEngine) every(start, period float64, fn func()) func() {
	return e.s.Every(start, period, fn).Stop
}
func (e *simEngine) runUntil(h float64) { e.s.RunUntil(h) }
func (e *simEngine) run()               { e.s.Run() }
func (e *simEngine) counts() [8]float64 {
	snap := telemetry.Capture(e.s.Now(), e.reg)
	depth := snap.Gauges[telemetry.MetricQueueDepth]
	return [8]float64{
		float64(e.s.EventCount()),
		float64(snap.Counters["sim.events_scheduled"]),
		float64(snap.Counters[telemetry.MetricEventsFired]),
		float64(snap.Counters["sim.events_cancelled"]),
		depth.Hi, depth.V,
		snap.Gauges["sim.pool_events"].V,
		snap.Gauges["sim.pool_free"].V,
	}
}

// refEntry is one scheduling in the reference queue.
type refEntry struct {
	at        float64
	fn        func()
	pending   bool
	cancelled bool
}

// refEngine is the reference pending-event set: entries kept in
// scheduling order, the head found as the first entry of least time
// (a stable sort by (at, seq)), tombstones kept in place and dropped by
// the same compaction rule as Cancel's, tickers that re-schedule with a
// fresh entry, and a chain expanded into At calls in index order. It
// counts the event arena as the Simulator's pool would: a scheduling
// takes a free slot or grows the arena, a fired or dropped entry frees
// its slot, and a ticker's re-schedule keeps the slot it fired from.
type refEngine struct {
	t                                    float64
	queue                                []*refEntry
	tombstones                           int
	fired, scheduled, cancelled, depthHi uint64
	depth                                int
	arena, free                          int
	rearmed                              bool // the firing entry's slot was re-scheduled
}

func (r *refEngine) now() float64 { return r.t }

func (r *refEngine) at(t float64, fn func()) func() {
	if r.free > 0 {
		r.free--
	} else {
		r.arena++
	}
	return r.push(t, fn)
}

func (r *refEngine) chain(ts []float64, fns []func()) {
	for i, t := range ts {
		r.at(t, fns[i])
	}
}

// push queues a scheduling in a slot the caller already holds.
func (r *refEngine) push(t float64, fn func()) func() {
	if t == 0 {
		t = 0 // −0 schedules at +0
	}
	e := &refEntry{at: t, fn: fn, pending: true}
	r.queue = append(r.queue, e)
	r.scheduled++
	r.depth = len(r.queue)
	r.depthHi = max(r.depthHi, uint64(r.depth))
	return func() {
		if !e.pending {
			return
		}
		e.pending, e.cancelled = false, true
		r.cancelled++
		r.tombstones++
		if r.tombstones >= compactFloor && r.tombstones > len(r.queue)/2 {
			live := r.queue[:0]
			for _, q := range r.queue {
				if !q.cancelled {
					live = append(live, q)
				}
			}
			r.free += len(r.queue) - len(live)
			r.queue, r.tombstones = live, 0
		}
	}
}

func (r *refEngine) every(start, period float64, fn func()) func() {
	var cancel func()
	done := false
	var fire func()
	fire = func() {
		if done {
			return
		}
		fn()
		if done {
			cancel = nil
			return
		}
		cancel = r.push(r.t+period, fire)
		r.rearmed = true
	}
	cancel = r.at(start, fire)
	return func() {
		done = true
		if cancel != nil {
			cancel()
			cancel = nil
		}
	}
}

func (r *refEngine) runUntil(h float64) {
	r.fireThrough(h)
	if r.t < h {
		r.t = h
	}
}

func (r *refEngine) run() { r.fireThrough(math.Inf(1)) }

func (r *refEngine) fireThrough(h float64) {
	for len(r.queue) > 0 {
		k := 0
		for i, e := range r.queue {
			if e.at < r.queue[k].at {
				k = i
			}
		}
		e := r.queue[k]
		if !(e.at <= h) {
			return
		}
		r.queue = append(r.queue[:k], r.queue[k+1:]...)
		if e.cancelled {
			r.tombstones--
			r.free++
			continue
		}
		e.pending = false
		r.t = e.at
		r.fired++
		r.rearmed = false
		e.fn()
		if !r.rearmed {
			r.free++
		}
	}
}

func (r *refEngine) counts() [8]float64 {
	return [8]float64{
		float64(r.fired), float64(r.scheduled), float64(r.fired), float64(r.cancelled),
		float64(r.depthHi), float64(r.depth), float64(r.arena), float64(r.free),
	}
}

// queueFiring is one logged callback: which scheduling ran, at what time
// (as bits, so −0 and +0 differ).
type queueFiring struct {
	id   int
	bits uint64
}

// queueProgram interprets a fuzz input as a schedule/cancel/ticker/run
// program against one engine and returns its firing log.
type queueProgram struct {
	prog    []byte
	pc      int
	e       engine
	log     []queueFiring
	cancels []func() // by event id; nil once fired or cancelled
	stops   []func()
	last    float64 // most recently scheduled time
}

func (p *queueProgram) next() byte {
	if p.pc >= len(p.prog) {
		return 0
	}
	b := p.prog[p.pc]
	p.pc++
	return b
}

// time decodes a firing time ≥ now from b: the current instant,
// −0 (at the start), subnormals, coarse and fine offsets, +Inf, or the
// last scheduled time, so equal times are common.
func (p *queueProgram) time(b byte) float64 {
	now := p.e.now()
	switch b & 7 {
	case 0:
		return now
	case 1:
		if now == 0 {
			return math.Copysign(0, -1)
		}
		return now
	case 2:
		return now + math.SmallestNonzeroFloat64
	case 3:
		return now + float64(b>>3)
	case 4:
		return now + float64(b>>3)*1e-9
	case 5:
		return math.Inf(1)
	case 6:
		return now + math.Float64frombits(uint64(b>>3)+1)
	default:
		return max(p.last, now)
	}
}

// schedule adds event id len(cancels) at time t.
func (p *queueProgram) schedule(t float64, action byte) {
	id := len(p.cancels)
	p.last = t
	p.cancels = append(p.cancels, nil)
	p.cancels[id] = p.e.at(t, p.callback(id, action, false))
}

// chain adds events len(cancels)… at times ts in one Chain. They have
// no handles, so cancel never picks them.
func (p *queueProgram) chain(ts []float64, actions []byte) {
	fns := make([]func(), len(ts))
	for i := range ts {
		fns[i] = p.callback(len(p.cancels), actions[i], true)
		p.cancels = append(p.cancels, nil)
	}
	p.e.chain(ts, fns)
}

// callback is event id's callback: it logs the firing and runs action:
// nothing, schedule a child (a plain event, or for a chained parent a
// chain of two), cancel a pending event, or stop a ticker.
func (p *queueProgram) callback(id int, action byte, chained bool) func() {
	return func() {
		p.cancels[id] = nil
		p.log = append(p.log, queueFiring{id, math.Float64bits(p.e.now())})
		switch arg := action >> 2; action & 3 {
		case 1:
			if chained {
				t0 := p.time(arg)
				p.last = t0
				t1 := p.time(arg >> 1)
				p.last = t1
				p.chain([]float64{t0, t1}, []byte{0, 0})
				break
			}
			p.schedule(p.time(arg), 0)
		case 2:
			p.cancel(int(arg))
		case 3:
			p.stop(int(arg))
		}
	}
}

// cancel cancels the k-th (mod count) pending event, if any.
func (p *queueProgram) cancel(k int) {
	var pending []int
	for id, c := range p.cancels {
		if c != nil {
			pending = append(pending, id)
		}
	}
	if len(pending) == 0 {
		return
	}
	id := pending[k%len(pending)]
	p.cancels[id]()
	p.cancels[id] = nil
}

func (p *queueProgram) stop(k int) {
	if len(p.stops) > 0 {
		p.stops[k%len(p.stops)]()
	}
}

// every starts ticker number len(stops), which logs each firing under
// id −1−ticker and stops itself after limit firings.
func (p *queueProgram) every(start, period float64, limit int) {
	tk := len(p.stops)
	n := 0
	p.stops = append(p.stops, nil)
	p.stops[tk] = p.e.every(start, period, func() {
		p.log = append(p.log, queueFiring{-1 - tk, math.Float64bits(p.e.now())})
		if n++; n >= limit {
			p.stops[tk]()
		}
	})
}

func (p *queueProgram) exec() []queueFiring {
	for p.pc < len(p.prog) {
		switch op := p.next(); op & 7 {
		case 0, 1:
			t := p.time(p.next())
			p.schedule(t, p.next())
		case 2:
			// A chain of 1…32 events, each with its own time and
			// action byte.
			n := 1 + int(op>>3)
			ts, acts := make([]float64, n), make([]byte, n)
			for i := range ts {
				ts[i] = p.time(p.next())
				p.last = ts[i]
				acts[i] = p.next()
			}
			p.chain(ts, acts)
		case 3:
			p.cancel(int(p.next()))
		case 4:
			// Cancel every other pending event, up to n of them: enough
			// tombstones at once to cross compactFloor and compact.
			n := int(p.next())
			for id, c := range p.cancels {
				if n == 0 {
					break
				}
				if c != nil && id&1 == int(op>>3)&1 {
					c()
					p.cancels[id] = nil
					n--
				}
			}
		case 5:
			start := p.time(p.next())
			period := float64(1+p.next()%16) * 1e-9
			p.every(start, period, 1+int(p.next()%5))
		case 6:
			p.e.runUntil(p.e.now() + float64(p.next())*1e-9)
		case 7:
			p.stop(int(p.next()))
		}
	}
	p.e.run()
	return p.log
}

// FuzzEventQueue replays a schedule/chain/cancel/ticker/run program on
// the Simulator and on a reference that stably sorts by (at, seq) and
// expands each chain into At calls, and requires the same firing log,
// EventCount, sim.events_* counters, sim.queue_depth high-water mark
// and last value, and arena gauges. Programs mix equal times, ±0,
// subnormals and +Inf, chain from within callbacks, and can tombstone
// enough entries to compact.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			return
		}
		got := &queueProgram{prog: prog, e: newSimEngine()}
		want := &queueProgram{prog: prog, e: &refEngine{}}
		gl, wl := got.exec(), want.exec()
		if !reflect.DeepEqual(gl, wl) {
			t.Fatalf("firing logs differ (%d vs %d firings)\n got %v\nwant %v", len(gl), len(wl), gl, wl)
		}
		if gc, wc := got.e.counts(), want.e.counts(); gc != wc {
			t.Fatalf("counts [EventCount scheduled fired cancelled depthHi depth poolEvents poolFree] = %v, reference %v", gc, wc)
		}
	})
}
