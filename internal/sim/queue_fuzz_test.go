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
	every(start, period float64, fn func()) (stop func())
	runUntil(horizon float64)
	run()
	// counts returns EventCount, sim.events_scheduled, _fired and
	// _cancelled, and the sim.queue_depth high-water mark.
	counts() [5]float64
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
func (e *simEngine) every(start, period float64, fn func()) func() {
	return e.s.Every(start, period, fn).Stop
}
func (e *simEngine) runUntil(h float64) { e.s.RunUntil(h) }
func (e *simEngine) run()               { e.s.Run() }
func (e *simEngine) counts() [5]float64 {
	return [5]float64{
		float64(e.s.EventCount()),
		float64(e.reg.Counter("sim.events_scheduled").Value()),
		float64(e.reg.Counter(telemetry.MetricEventsFired).Value()),
		float64(e.reg.Counter("sim.events_cancelled").Value()),
		e.reg.Gauge(telemetry.MetricQueueDepth).Hi(),
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
// the same compaction rule as Cancel's, and tickers that re-schedule
// with a fresh entry.
type refEngine struct {
	t                                    float64
	queue                                []*refEntry
	tombstones                           int
	fired, scheduled, cancelled, depthHi uint64
}

func (r *refEngine) now() float64 { return r.t }

func (r *refEngine) at(t float64, fn func()) func() {
	if t == 0 {
		t = 0 // −0 schedules at +0
	}
	e := &refEntry{at: t, fn: fn, pending: true}
	r.queue = append(r.queue, e)
	r.scheduled++
	r.depthHi = max(r.depthHi, uint64(len(r.queue)))
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
		cancel = r.at(r.t+period, fire)
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
			continue
		}
		e.pending = false
		r.t = e.at
		r.fired++
		e.fn()
	}
}

func (r *refEngine) counts() [5]float64 {
	return [5]float64{float64(r.fired), float64(r.scheduled), float64(r.fired), float64(r.cancelled), float64(r.depthHi)}
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

// schedule adds event id len(cancels) at time t; when it fires it logs
// itself and runs action: nothing, schedule a plain child, cancel a
// pending event, or stop a ticker.
func (p *queueProgram) schedule(t float64, action byte) {
	id := len(p.cancels)
	p.last = t
	p.cancels = append(p.cancels, nil)
	p.cancels[id] = p.e.at(t, func() {
		p.cancels[id] = nil
		p.log = append(p.log, queueFiring{id, math.Float64bits(p.e.now())})
		switch arg := action >> 2; action & 3 {
		case 1:
			p.schedule(p.time(arg), 0)
		case 2:
			p.cancel(int(arg))
		case 3:
			p.stop(int(arg))
		}
	})
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
		case 0, 1, 2:
			t := p.time(p.next())
			p.schedule(t, p.next())
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

// FuzzEventQueue replays a schedule/cancel/ticker/run program on the
// Simulator and on a reference that stably sorts by (at, seq), and
// requires the same firing log, EventCount, sim.events_* counters and
// sim.queue_depth high-water mark. Programs mix equal times, ±0,
// subnormals and +Inf, and can tombstone enough entries to compact.
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
			t.Fatalf("counts [EventCount scheduled fired cancelled depthHi] = %v, reference %v", gc, wc)
		}
	})
}
