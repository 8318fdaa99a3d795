// Conservative parallel composition of Simulators.
//
// A Group runs S independent sub-simulators ("shards") in lock-step
// windows of width equal to the lookahead: within a window every shard
// processes its own events freely, and anything one shard wants to
// happen on another is routed through Post, which requires the target
// time to lie at or beyond the window end. Because cross-shard
// causality in this repository is carried by WAN links whose
// propagation delay is at least the lookahead, a post made at
// simulated time τ inside the window (t, t+W] targets τ+D ≥ t+W, so
// no shard can ever receive an event in its past — the classical
// conservative (Chandy–Misra style) synchronization argument, with
// the barrier playing the role of the null message (see DESIGN.md §8).
//
// Most windows of a sparse model hold no event at all. RunUntil skips
// them without a barrier: when no shard has an event due by a window's
// end and no outbox holds a post, the window could neither fire nor
// post, so the group clock steps over it along the same now+lookahead
// grid. Window ends, and so every firing and every group.* metric, are
// exactly those of running each window.
//
// Determinism is independent of the worker count: the shard
// decomposition, the window boundaries, and the mailbox flush order
// depend only on (lookahead, horizon, posting shard, posting order) —
// never on goroutine scheduling. Worker goroutines only ever touch
// disjoint shards inside a window, and all cross-shard state crosses
// the barrier through channels, so runs are race-free and
// byte-identical for 1 and N workers. One worker runs the shards in
// turn on the driving goroutine; no measured workload runs faster on
// more (DESIGN.md §8).
package sim

import (
	"fmt"
	"math"
	"sort"

	"ntisim/internal/telemetry"
)

// DeriveSeed maps a scenario seed and a label to the seed of an
// independent deterministic stream, using the same splitmix64 + FNV-64
// construction as RNG.Derive: NewRNG(DeriveSeed(seed, label)) yields
// the stream NewRNG(seed).Derive(label). Shard sub-simulators use it
// so that shard i's RNG universe is a pure function of (seed, i).
func DeriveSeed(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(seed).s[0] ^ h
}

// crossPost is one cross-shard event waiting in a Group outbox for the
// end-of-window flush.
type crossPost struct {
	dst int
	at  float64
	fn  func()
}

// Group composes per-shard Simulators under windowed conservative
// synchronization. The zero value is not usable; call NewGroup.
//
// A Group is driven from a single goroutine (RunUntil). With one
// worker it runs every shard there; with more, the worker goroutines
// live for one RunUntil call and wake once per window that runs.
type Group struct {
	shards    []*Simulator
	lookahead float64
	workers   int

	now    float64
	winEnd float64 // end of the window currently executing (read-only inside it)

	outbox [][]crossPost // one append-only outbox per source shard
	merged []crossPost   // flush scratch, reused across windows

	// Per-window worker rendezvous. wstart[w] carries the window end to
	// worker w (per-worker channels so a fast worker cannot steal a
	// slower worker's wake-up and skip that worker's shards); wdone
	// collects one token per worker per window. wpanic holds the first
	// panic recovered on each worker, re-raised on the driving
	// goroutine so a panicking model behaves as in the serial engine.
	wstart []chan float64
	wdone  chan struct{}
	wpanic []any

	// Telemetry handles (SetTelemetry): window count, flushed cross-shard
	// posts, events per window and the per-window shard imbalance ratio.
	// All updates happen on the driving goroutine strictly between
	// windows, so they are as deterministic as the window boundaries.
	tmWindows   *telemetry.Counter
	tmPosts     *telemetry.Counter
	tmWinEvents *telemetry.Gauge
	tmImbalance *telemetry.Gauge
	tmPrevFired []uint64 // per-shard fired counts at the last barrier
}

// NewGroup builds a Group over the given shards. lookahead is the
// minimum cross-shard latency in simulated seconds and must be > 0;
// workers is clamped to [1, len(shards)].
func NewGroup(lookahead float64, workers int, shards []*Simulator) *Group {
	if len(shards) == 0 {
		panic("sim: NewGroup with no shards")
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("sim: NewGroup lookahead %v must be > 0", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	return &Group{
		shards:    shards,
		lookahead: lookahead,
		workers:   workers,
		outbox:    make([][]crossPost, len(shards)),
	}
}

// Shards returns the number of sub-simulators.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns sub-simulator i.
func (g *Group) Shard(i int) *Simulator { return g.shards[i] }

// Workers returns the configured worker-goroutine count.
func (g *Group) Workers() int { return g.workers }

// Now returns the group clock: the end of the last completed window.
// Individual shards sit exactly at this time between windows.
func (g *Group) Now() float64 { return g.now }

// Lookahead returns the window width.
func (g *Group) Lookahead() float64 { return g.lookahead }

// EventCount sums fired events across shards.
func (g *Group) EventCount() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.EventCount()
	}
	return n
}

// SetTelemetry registers the group's conservative-sync metrics on r,
// the driver-level registry: a window counter, a flushed cross-shard
// post counter, an events-per-window gauge and a shard-imbalance gauge
// (busiest shard's window events over the per-shard mean; 1.0 =
// perfectly balanced, S = one shard did all the work). On each shard's
// own registry (its Simulator's Telemetry) it registers that shard's
// cumulative fired-event count and window lag — how far short of the
// group clock the shard went idle — both read at capture time.
//
// Wall-clock worker utilization is deliberately absent: it would differ
// run to run, and snapshots must stay a pure function of sim state. The
// live Monitor owns wall-clock observations.
func (g *Group) SetTelemetry(r *telemetry.Registry) {
	g.tmWindows = r.Counter("group.windows")
	g.tmPosts = r.Counter("group.posts_flushed")
	g.tmWinEvents = r.Gauge("group.window_events")
	g.tmImbalance = r.Gauge("group.imbalance")
	g.tmPrevFired = make([]uint64, len(g.shards))
	for _, s := range g.shards {
		s.Telemetry().GaugeFunc(telemetry.MetricShardEvents, func() float64 { return float64(s.EventCount()) })
		s.Telemetry().GaugeFunc("group.shard_lag_s", func() float64 { return g.now - s.LastFiredAt() })
	}
}

// windowTelemetry records one completed window: total events fired in it
// and how unevenly the shards shared them.
func (g *Group) windowTelemetry() {
	g.tmWindows.Inc()
	var total, max uint64
	for i, s := range g.shards {
		d := s.EventCount() - g.tmPrevFired[i]
		g.tmPrevFired[i] = s.EventCount()
		total += d
		if d > max {
			max = d
		}
	}
	g.tmWinEvents.Set(float64(total))
	if total > 0 {
		mean := float64(total) / float64(len(g.shards))
		g.tmImbalance.Set(float64(max) / mean)
	}
}

// Post schedules fn to run on shard dst at absolute time at. It may be
// called from shard src's event callbacks while a window executes (and
// from the driving goroutine between windows). The target time must
// not precede the end of the current window — the conservative-sync
// contract; violating it means the claimed lookahead was wrong, which
// would silently break determinism, so it panics loudly instead.
//
// Posts are buffered per source shard and flushed at the barrier in a
// canonical order (by target time, ties broken by source shard then
// posting order), so the destination shard's (at, seq) tie-break is a
// pure function of simulation state, not goroutine timing.
func (g *Group) Post(src, dst int, at float64, fn func()) {
	if at < g.winEnd {
		panic(fmt.Sprintf("sim: cross-shard post at %v before window end %v (lookahead %v violated)",
			at, g.winEnd, g.lookahead))
	}
	g.outbox[src] = append(g.outbox[src], crossPost{dst: dst, at: at, fn: fn})
}

// flush drains every outbox into the destination shards in canonical
// order. Runs on the driving goroutine, strictly between windows.
func (g *Group) flush() {
	m := g.merged[:0]
	for src := range g.outbox {
		m = append(m, g.outbox[src]...)
		g.outbox[src] = g.outbox[src][:0]
	}
	g.tmPosts.Add(uint64(len(m)))
	if len(m) > 1 {
		// Stable sort on target time: ties keep concatenation order,
		// i.e. (source shard, posting order).
		sort.SliceStable(m, func(i, j int) bool { return m[i].at < m[j].at })
	}
	for i := range m {
		g.shards[m[i].dst].At(m[i].at, m[i].fn)
		m[i].fn = nil
	}
	g.merged = m[:0]
}

// RunUntil advances every shard to horizon in conservative windows of
// width Lookahead, flushing cross-shard posts at each barrier and
// skipping windows with nothing due (skipIdle). It returns the group
// clock (== horizon when horizon > Now).
func (g *Group) RunUntil(horizon float64) float64 {
	if horizon <= g.now {
		return g.now
	}
	par := g.workers > 1 && len(g.shards) > 1
	if par {
		g.startWorkers()
		defer g.stopWorkers()
	}
	for g.now < horizon {
		end := g.windowEnd(horizon)
		if end < horizon && g.outboxesEmpty() {
			end = g.skipIdle(end, horizon)
		}
		g.winEnd = end
		if par {
			g.runWindowParallel(end)
		} else {
			for _, s := range g.shards {
				s.RunUntil(end)
			}
		}
		g.flush()
		g.now = end
		if g.tmWindows != nil {
			g.windowTelemetry()
		}
	}
	return g.now
}

// windowEnd returns the end of the window that starts at the group
// clock: one lookahead on, capped at horizon.
func (g *Group) windowEnd(horizon float64) float64 {
	return min(g.now+g.lookahead, horizon)
}

// outboxesEmpty reports whether no cross-shard post awaits a flush
// (only a Post made between RunUntil calls leaves one).
func (g *Group) outboxesEmpty() bool {
	for _, o := range g.outbox {
		if len(o) > 0 {
			return false
		}
	}
	return true
}

// skipIdle advances the group clock over the windows before horizon
// in which no shard has an event due, given the end of the next
// window, and returns the end of the first window that must run. Such
// a window fires nothing, posts nothing and flushes nothing, so
// skipping it is exact: the clock walks the same now+lookahead grid
// the windows would have, and the window telemetry counts it as an
// empty window. The earliest queue head is read once per stretch
// (cancelled entries included, so a window that would drain a
// tombstone still runs) because no queue changes while skipping. The
// window ending at horizon always runs, so every shard's clock reaches
// horizon.
func (g *Group) skipIdle(end, horizon float64) float64 {
	head := math.Inf(1)
	for _, s := range g.shards {
		if len(s.queue) > 0 {
			head = min(head, s.queue[0].at())
		}
	}
	var skipped uint64
	for end < horizon && head > end {
		g.now = end
		skipped++
		end = g.windowEnd(horizon)
	}
	if skipped > 0 && g.tmWindows != nil {
		g.tmWindows.Add(skipped)
		g.tmWinEvents.Set(0)
	}
	return end
}

// startWorkers spawns the per-RunUntil worker pool. Worker w owns the
// shard stride w, w+P, w+2P, … — a static partition, so two workers
// never touch the same shard and the assignment is scheduling-free.
func (g *Group) startWorkers() {
	p := g.workers
	g.wstart = make([]chan float64, p)
	g.wdone = make(chan struct{}, p)
	g.wpanic = make([]any, p)
	for w := 0; w < p; w++ {
		g.wstart[w] = make(chan float64, 1)
		go func(w int) {
			for end := range g.wstart[w] {
				func() {
					defer func() {
						if r := recover(); r != nil && g.wpanic[w] == nil {
							g.wpanic[w] = r
						}
					}()
					for i := w; i < len(g.shards); i += p {
						g.shards[i].RunUntil(end)
					}
				}()
				g.wdone <- struct{}{}
			}
		}(w)
	}
}

// runWindowParallel executes one window on the worker pool and
// re-raises the lowest-indexed worker panic, if any, on the caller.
func (g *Group) runWindowParallel(end float64) {
	for _, ch := range g.wstart {
		ch <- end
	}
	for range g.wstart {
		<-g.wdone
	}
	for w := range g.wpanic {
		if r := g.wpanic[w]; r != nil {
			g.wpanic[w] = nil
			panic(r)
		}
	}
}

// stopWorkers shuts the pool down (workers exit when their start
// channel closes). Safe during panic unwinding via defer.
func (g *Group) stopWorkers() {
	for _, ch := range g.wstart {
		close(ch)
	}
	g.wstart = nil
	g.wdone = nil
	g.wpanic = nil
}
