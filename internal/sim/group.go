// Conservative composition of Simulators.
//
// A Group runs S independent sub-simulators ("shards") in lock-step
// windows of width equal to the lookahead: within a window every shard
// processes its own events freely, one shard after the other, and
// anything one shard wants to happen on another is routed through
// Post, which requires the target time to lie at or beyond the window
// end. Because cross-shard causality in this repository is carried by
// WAN links whose propagation delay is at least the lookahead, a post
// made at simulated time τ inside the window (t, t+W] targets
// τ+D ≥ t+W, so no shard can ever receive an event in its past — the
// classical conservative (Chandy–Misra style) synchronization
// argument, with the barrier playing the role of the null message
// (see DESIGN.md §8).
//
// Most windows of a sparse model hold no event at all. RunUntil skips
// them without a barrier: when no shard has an event due by a window's
// end and no outbox holds a post, the window could neither fire nor
// post, so the group clock steps over it along the same now+lookahead
// grid. Window ends, and so every firing and every group.* metric, are
// exactly those of running each window.
//
// The shard decomposition, the window boundaries and the mailbox flush
// order depend only on (lookahead, horizon, posting shard, posting
// order), so a run is a pure function of its inputs. The shards run in
// turn on the calling goroutine: the speed of the sharded topology
// comes from the per-segment queues and the skipped idle windows, and
// no measured workload ran faster with a worker goroutine per shard
// (DESIGN.md §8).
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// A Group is single-goroutine state, like its shards: RunUntil runs
// every shard on the calling goroutine.
type Group struct {
	shards    []*Simulator
	lookahead float64

	now    float64
	winEnd float64 // end of the window currently executing (read-only inside it)

	outbox [][]crossPost // one append-only outbox per source shard
	merged []crossPost   // flush scratch, reused across windows

	// Telemetry handles (SetTelemetry): window count, flushed cross-shard
	// posts, events per window and the per-window shard imbalance ratio.
	// All updates happen strictly between windows, so they are as
	// deterministic as the window boundaries.
	tmWindows   *telemetry.Counter
	tmPosts     *telemetry.Counter
	tmWinEvents *telemetry.Gauge
	tmImbalance *telemetry.Gauge
	tmPrevFired []uint64 // per-shard fired counts at the last barrier
}

// NewGroup builds a Group over the given shards. lookahead is the
// minimum cross-shard latency in simulated seconds and must be > 0.
func NewGroup(lookahead float64, shards []*Simulator) *Group {
	if len(shards) == 0 {
		panic("sim: NewGroup with no shards")
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("sim: NewGroup lookahead %v must be > 0", lookahead))
	}
	return &Group{
		shards:    shards,
		lookahead: lookahead,
		outbox:    make([][]crossPost, len(shards)),
	}
}

// Shards returns the number of sub-simulators.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns sub-simulator i.
func (g *Group) Shard(i int) *Simulator { return g.shards[i] }

// Now returns the group clock: the end of the last completed window.
// Individual shards sit exactly at this time between windows.
func (g *Group) Now() float64 { return g.now }

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
// Wall-clock observations are deliberately absent: they would differ
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
// called from shard src's event callbacks while a window executes, and
// between windows. The target time must
// not precede the end of the current window — the conservative-sync
// contract; violating it means the claimed lookahead was wrong, which
// would silently break determinism, so it panics loudly instead.
//
// Posts are buffered per source shard and flushed at the barrier in a
// canonical order (by target time, ties broken by source shard then
// posting order), so the destination shard's (at, seq) tie-break is a
// pure function of simulation state, not of the order the shards ran
// in.
func (g *Group) Post(src, dst int, at float64, fn func()) {
	if at < g.winEnd {
		panic(fmt.Sprintf("sim: cross-shard post at %v before window end %v (lookahead %v violated)",
			at, g.winEnd, g.lookahead))
	}
	g.outbox[src] = append(g.outbox[src], crossPost{dst: dst, at: at, fn: fn})
}

// flush drains every outbox into the destination shards in canonical
// order, strictly between windows.
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
		slices.SortStableFunc(m, func(a, b crossPost) int { return cmp.Compare(a.at, b.at) })
	}
	for i := range m {
		g.shards[m[i].dst].At(m[i].at, m[i].fn)
		m[i].fn = nil
	}
	g.merged = m[:0]
}

// RunUntil advances every shard to horizon in conservative windows of
// width lookahead, flushing cross-shard posts at each barrier and
// skipping windows with nothing due (skipIdle). It returns the group
// clock (== horizon when horizon > Now).
func (g *Group) RunUntil(horizon float64) float64 {
	if horizon <= g.now {
		return g.now
	}
	for g.now < horizon {
		end := g.windowEnd(horizon)
		if end < horizon && g.outboxesEmpty() {
			end = g.skipIdle(end, horizon)
		}
		g.winEnd = end
		for _, s := range g.shards {
			s.RunUntil(end)
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
