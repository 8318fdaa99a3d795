package network

import "ntisim/internal/sim"

// WANPath models a class (III) long-haul path (paper §1): end-to-end
// delays composed of a base propagation term plus per-hop queueing that
// is heavy-tailed (bounded Pareto) and asymmetric under load — the
// environment NTP lives in, where deterministic guarantees are
// impossible and accuracy lands in the 10 ms range [Tro94].
type WANPath struct {
	s   *sim.Simulator
	cfg WANConfig
	rng *sim.RNG

	delivered uint64
	lost      uint64
}

// WANConfig parameterizes one direction of a WAN path.
type WANConfig struct {
	Hops       int     // intermediate gateways; default 3
	BaseDelayS float64 // propagation+transmission floor; default 5 ms
	// Queueing per hop: bounded Pareto with shape QueueShape on
	// [QueueMinS, QueueMaxS]. Defaults: 1.2, 0.2 ms, 80 ms.
	QueueMinS  float64
	QueueMaxS  float64
	QueueShape float64
	// Asymmetry skews the forward direction's queueing by this factor
	// (>1 = forward slower), modelling asymmetric congestion, the NTP
	// killer. Default 1.
	Asymmetry float64
	LossProb  float64
}

// DefaultWAN returns a mid-90s Internet-path configuration.
func DefaultWAN() WANConfig {
	return WANConfig{
		Hops:       3,
		BaseDelayS: 5e-3,
		QueueMinS:  0.2e-3,
		QueueMaxS:  80e-3,
		QueueShape: 1.2,
		Asymmetry:  1,
	}
}

// NewWANPath creates a path bound to the simulator. label distinguishes
// RNG streams when several paths exist.
func NewWANPath(s *sim.Simulator, cfg WANConfig, label string) *WANPath {
	if cfg.Hops <= 0 {
		cfg.Hops = 3
	}
	if cfg.BaseDelayS <= 0 {
		cfg.BaseDelayS = 5e-3
	}
	if cfg.QueueMinS <= 0 {
		cfg.QueueMinS = 0.2e-3
	}
	if cfg.QueueMaxS <= cfg.QueueMinS {
		cfg.QueueMaxS = cfg.QueueMinS * 100
	}
	if cfg.QueueShape <= 0 {
		cfg.QueueShape = 1.2
	}
	if cfg.Asymmetry <= 0 {
		cfg.Asymmetry = 1
	}
	return &WANPath{s: s, cfg: cfg, rng: s.RNG("wan/" + label)}
}

// SampleDelay draws one end-to-end delay. forward selects the skewed
// direction.
func (w *WANPath) SampleDelay(forward bool) float64 {
	d := w.cfg.BaseDelayS
	skew := 1.0
	if forward {
		skew = w.cfg.Asymmetry
	}
	for h := 0; h < w.cfg.Hops; h++ {
		d += skew * w.rng.Pareto(w.cfg.QueueShape, w.cfg.QueueMinS, w.cfg.QueueMaxS)
	}
	return d
}

// Deliver schedules fn after a sampled one-way delay, or drops the
// packet with the configured loss probability. It reports whether the
// packet survived.
func (w *WANPath) Deliver(forward bool, fn func(sentAt, arrivedAt float64)) bool {
	if w.cfg.LossProb > 0 && w.rng.Bool(w.cfg.LossProb) {
		w.lost++
		return false
	}
	sent := w.s.Now()
	d := w.SampleDelay(forward)
	w.s.After(d, func() { fn(sent, sent+d) })
	w.delivered++
	return true
}

// Stats returns packets delivered and lost.
func (w *WANPath) Stats() (delivered, lost uint64) { return w.delivered, w.lost }
