package network

import "ntisim/internal/sim"

// WANPath models a class (III) long-haul path (paper §1): end-to-end
// delays composed of a base propagation term plus per-hop queueing that
// is heavy-tailed (bounded Pareto) and asymmetric under load — the
// environment NTP lives in, where deterministic guarantees are
// impossible and accuracy lands in the 10 ms range [Tro94].
type WANPath struct {
	s         *sim.Simulator
	asymmetry float64
	rng       *sim.RNG
}

// The mid-90s Internet path: wanHops intermediate gateways over a
// wanBaseDelayS propagation+transmission floor, each adding bounded
// Pareto queueing of shape wanQueueShape on [wanQueueMinS, wanQueueMaxS].
const (
	wanHops       = 3
	wanBaseDelayS = 5e-3
	wanQueueMinS  = 0.2e-3
	wanQueueMaxS  = 80e-3
	wanQueueShape = 1.2
)

// NewWANPath creates a path bound to the simulator. asymmetry skews the
// forward direction's queueing by that factor (>1 = forward slower),
// modelling asymmetric congestion, the NTP killer; 1 is symmetric.
// label distinguishes RNG streams when several paths exist.
func NewWANPath(s *sim.Simulator, asymmetry float64, label string) *WANPath {
	return &WANPath{s: s, asymmetry: asymmetry, rng: s.RNG("wan/" + label)}
}

// SampleDelay draws one end-to-end delay. forward selects the skewed
// direction.
func (w *WANPath) SampleDelay(forward bool) float64 {
	d := wanBaseDelayS
	skew := 1.0
	if forward {
		skew = w.asymmetry
	}
	for h := 0; h < wanHops; h++ {
		d += skew * w.rng.Pareto(wanQueueShape, wanQueueMinS, wanQueueMaxS)
	}
	return d
}

// Deliver schedules fn after a sampled one-way delay.
func (w *WANPath) Deliver(forward bool, fn func(sentAt, arrivedAt float64)) {
	sent := w.s.Now()
	d := w.SampleDelay(forward)
	w.s.After(d, func() { fn(sent, sent+d) })
}
