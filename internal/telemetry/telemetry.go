// Package telemetry is a low-overhead runtime metrics registry for the
// simulator stack: named counters, gauges and log-binned histograms that
// layers update on their hot paths and that the campaign harness captures
// into deterministic sim-time snapshots.
//
// Design rules, in the style of internal/trace:
//
//   - Disabled means free. Every handle method is nil-safe: a nil *Counter,
//     *Gauge or *Histogram returns immediately, so instrumented code holds
//     plain handle fields and never branches on configuration. A cluster
//     built without a Registry pays one predictable nil-check per update
//     site and allocates nothing (pinned by test).
//
//   - One registry per goroutine domain. A Registry is deliberately NOT
//     thread-safe: the sharded kernel gives each shard its own Registry
//     (updated only by that shard's single-threaded Simulator, exactly like
//     per-shard trace rings) plus one driver-level Registry touched only
//     between windows. Capture merges them at a barrier.
//
//   - Snapshots are sim-domain only. Everything that enters a Snapshot is a
//     pure function of (config, seed, sim time), so snapshot artifacts are
//     byte-identical across campaign worker counts. Wall-clock
//     observations (worker utilization, throughput, ETA) live in Monitor,
//     which serves them over HTTP and never writes artifacts.
package telemetry

import (
	"sort"
	"strconv"
)

// Counter is a monotonically increasing event count. Not thread-safe;
// update it only from the owning registry's goroutine domain.
type Counter struct{ v uint64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Gauge is an instantaneous level with a high-water mark. Set tracks the
// level; Add accumulates (useful for "busy seconds" style integrals, where
// the running total is the level).
type Gauge struct {
	v, hi float64
	key   string // snapshot key (Registry.key)
}

// Set records the current level and updates the high-water mark. No-op on
// a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hi {
		g.hi = v
	}
}

// Add accumulates dv into the level. No-op on a nil receiver.
func (g *Gauge) Add(dv float64) {
	if g == nil {
		return
	}
	g.v += dv
	if g.v > g.hi {
		g.hi = g.v
	}
}

// Registry owns the named metrics for one goroutine domain. The zero of
// usefulness is a nil *Registry: every lookup on it returns a nil handle,
// whose methods are all no-ops.
type Registry struct {
	shard    int
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fns      map[string]gaugeFunc
	hists    map[string]*Histogram
}

// gaugeFunc is a registered GaugeFunc callback with its snapshot key.
type gaugeFunc struct {
	fn  func() float64
	key string
}

// New returns an empty registry with no shard tag.
func New() *Registry {
	return &Registry{
		shard:    -1,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		fns:      make(map[string]gaugeFunc),
		hists:    make(map[string]*Histogram),
	}
}

// SetShard tags the registry with a shard index. Capture suffixes gauge
// keys from a tagged registry with "@<shard>" so per-shard levels stay
// distinguishable after the merge; counters and histograms merge by plain
// name regardless. A gauge's key is formatted when it is registered, so
// SetShard re-keys the gauges registered before it.
func (r *Registry) SetShard(shard int) {
	if r == nil {
		return
	}
	r.shard = shard
	for name, g := range r.gauges {
		g.key = r.key(name)
	}
	for name, f := range r.fns {
		r.fns[name] = gaugeFunc{f.fn, r.key(name)}
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{key: r.key(name)}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated only at Capture time — zero
// hot-path cost for levels that are cheap to read on demand (pool sizes,
// cumulative event counts). Re-registering a name replaces the callback.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.fns[name] = gaugeFunc{fn, r.key(name)}
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// key maps a gauge name to its merged-snapshot key, suffixing the shard
// tag when present.
func (r *Registry) key(name string) string {
	if r.shard < 0 {
		return name
	}
	return name + "@" + strconv.Itoa(r.shard)
}

// sortedKeys returns map keys in sorted order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
