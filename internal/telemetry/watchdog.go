package telemetry

import (
	"sort"
	"strings"
)

// Metric names the watchdog rules key on. Layers register these exact
// names; the watchdog only sees merged snapshots, so it is decoupled from
// the instrumented packages.
const (
	// MetricContainment counts reference-interval containment violations
	// observed by the harness sample loop.
	MetricContainment = "sync.containment_violations"
	// MetricConvergenceFailed counts clocksync rounds whose interval
	// fusion failed to produce a valid result.
	MetricConvergenceFailed = "sync.convergence_failed"
	// MetricQueueDepth is the event-queue depth gauge (per shard when
	// sharded: "sim.queue_depth@N").
	MetricQueueDepth = "sim.queue_depth"
	// MetricShardEvents is the cumulative per-shard fired-event gauge
	// ("group.shard_events@N"), used for stall detection.
	MetricShardEvents = "group.shard_events"
	// MetricEventsFired is the merged fired-event counter.
	MetricEventsFired = "sim.events_fired"
	// MetricHonestContainment counts containment violations on honest
	// (non-traitor) nodes only, maintained by the harness sample loop on
	// adversarial cells. A traitor steering its own clock off true time
	// is working as configured; an *honest* node losing containment
	// means the Byzantine tolerance bound was actually exceeded.
	MetricHonestContainment = "sync.honest_containment_violations"
)

// Fixed thresholds of the absolute health rules.
const (
	// queueDepthLimit flags "queue-depth-runaway" when any event-queue
	// depth high-water exceeds it.
	queueDepthLimit = 1 << 20
	// stallSnapshots flags "shard-stall@N" when shard N fires no events
	// for this many consecutive snapshots while the rest of the cluster
	// advances.
	stallSnapshots = 3
)

// WatchdogConfig opts a cell into the watchdog's trend rule. The zero
// value runs only the fixed-threshold rules.
type WatchdogConfig struct {
	// PrecisionDriftWindow enables the trend rule: precision getting
	// strictly worse for this many consecutive ObservePrecision calls
	// latches "precision-drift". 0 (the default) disables the rule, so
	// cells that never opt in keep their exact legacy flag sets.
	PrecisionDriftWindow int `json:"precision_drift_window,omitempty"`
}

// Watchdog evaluates health rules over the snapshot sequence of one cell.
// Rules are pure functions of snapshot contents (sim-domain), so the flags
// a cell earns are as deterministic as the snapshots themselves. Flags
// latch: once raised they stay raised for the cell.
type Watchdog struct {
	cfg        WatchdogConfig
	prevShard  map[string]float64 // last seen per-shard cumulative events
	prevFired  uint64
	stallCount map[string]int
	flags      map[string]bool
	// Precision-trend state (PrecisionDriftWindow > 0): the previous
	// observation and the current strictly-worsening streak length.
	prevPrecision float64
	driftStreak   int
	precisionSeen bool
}

// NewWatchdog returns a watchdog running every rule: any containment
// violation or failed convergence round, any honest-node containment
// violation, a queue-depth high-water above 1<<20, a shard that fires
// nothing for 3 consecutive snapshots while the cluster advances, and,
// when cfg.PrecisionDriftWindow > 0, the precision-drift trend rule.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{
		cfg:        cfg,
		prevShard:  map[string]float64{},
		stallCount: map[string]int{},
		flags:      map[string]bool{},
	}
}

// Observe evaluates every rule against one snapshot. No-op on nil.
func (w *Watchdog) Observe(s Snapshot) {
	if w == nil {
		return
	}
	if s.Counters[MetricContainment] > 0 {
		w.flags["containment-violation"] = true
	}
	if s.Counters[MetricConvergenceFailed] > 0 {
		w.flags["convergence-failures"] = true
	}
	if s.Counters[MetricHonestContainment] > 0 {
		// Safe unconditionally: the metric only exists in snapshots of
		// adversarial cells (registered there by the harness).
		w.flags["honest-containment"] = true
	}
	for key, g := range s.Gauges {
		if key == MetricQueueDepth || strings.HasPrefix(key, MetricQueueDepth+"@") {
			if g.Hi > queueDepthLimit {
				w.flags["queue-depth-runaway"] = true
			}
		}
	}
	fired := s.Counters[MetricEventsFired]
	advancing := fired > w.prevFired
	for key, g := range s.Gauges {
		if !strings.HasPrefix(key, MetricShardEvents+"@") {
			continue
		}
		prev, seen := w.prevShard[key]
		if seen && g.V == prev && advancing {
			w.stallCount[key]++
			if w.stallCount[key] >= stallSnapshots {
				w.flags["shard-stall@"+key[len(MetricShardEvents)+1:]] = true
			}
		} else if g.V != prev {
			w.stallCount[key] = 0
		}
		w.prevShard[key] = g.V
	}
	w.prevFired = fired
}

// ObservePrecision feeds the trend rule one per-snapshot precision
// sample (seconds; smaller is better). A run of cfg.PrecisionDriftWindow
// consecutive strictly-worsening samples latches "precision-drift" —
// the "drifting monotonically worse" failure mode absolute limits can't
// see until it is far gone. No-op on nil or when the rule is disabled.
func (w *Watchdog) ObservePrecision(p float64) {
	if w == nil || w.cfg.PrecisionDriftWindow <= 0 {
		return
	}
	if w.precisionSeen && p > w.prevPrecision {
		w.driftStreak++
		if w.driftStreak >= w.cfg.PrecisionDriftWindow {
			w.flags["precision-drift"] = true
		}
	} else {
		w.driftStreak = 0
	}
	w.prevPrecision = p
	w.precisionSeen = true
}

// Flags returns the latched health flags, sorted. Nil (not empty) when
// healthy, so a Result's omitempty health field stays absent.
func (w *Watchdog) Flags() []string {
	if w == nil || len(w.flags) == 0 {
		return nil
	}
	fs := make([]string, 0, len(w.flags))
	for f := range w.flags {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	return fs
}
