package telemetry

// GaugeValue is a gauge's level and high-water mark at snapshot time.
type GaugeValue struct {
	V  float64 `json:"v"`
	Hi float64 `json:"hi"`
}

// HistValue summarizes a histogram at snapshot time.
type HistValue struct {
	N    uint64  `json:"n"`
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Snapshot is the merged state of one or more registries at a sim time.
// Everything in it is a pure function of (config, seed, sim time), so
// marshaling one (encoding/json sorts map keys) yields identical bytes on
// every run regardless of the campaign worker count.
type Snapshot struct {
	T        float64               `json:"t"`
	Counters map[string]uint64     `json:"counters,omitempty"`
	Gauges   map[string]GaugeValue `json:"gauges,omitempty"`
	Hists    map[string]HistValue  `json:"hists,omitempty"`
}

// Capture merges the given registries into a Snapshot at sim time t. Call
// it only at a barrier (between Group windows / after RunUntil returns):
// registries are not thread-safe and Capture reads them directly.
//
// Merge rules: counters and histograms combine by plain name (sums and
// elementwise bin adds — shard decomposition is fixed by config, so totals
// are invariant under worker counts); gauges keep per-shard identities via
// the "name@shard" key of a tagged registry; GaugeFunc callbacks are
// evaluated here, never on the hot path. Nil registries are skipped.
func Capture(t float64, regs ...*Registry) Snapshot {
	s := Snapshot{
		T:        t,
		Counters: map[string]uint64{},
		Gauges:   map[string]GaugeValue{},
		Hists:    map[string]HistValue{},
	}
	for _, r := range regs {
		if r == nil {
			continue
		}
		// Sums and stores to distinct keys do not depend on the order
		// within a registry; registry order decides a shared gauge key.
		for name, c := range r.counters {
			s.Counters[name] += c.v
		}
		for _, g := range r.gauges {
			s.Gauges[g.key] = GaugeValue{V: g.v, Hi: g.hi}
		}
		for _, f := range r.fns {
			v := f.fn()
			s.Gauges[f.key] = GaugeValue{V: v, Hi: v}
		}
		for name := range r.hists {
			s.Hists[name] = HistValue{}
		}
	}
	// Each name merges into one reused histogram, in registry order, so
	// the float sums add up in the same order on every run.
	var m Histogram
	for name := range s.Hists {
		m = Histogram{}
		for _, r := range regs {
			if r != nil {
				m.merge(r.hists[name])
			}
		}
		s.Hists[name] = m.stats()
	}
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	if len(s.Hists) == 0 {
		s.Hists = nil
	}
	return s
}
