// Package core is the library façade: one call builds a complete
// simulated distributed system — N nodes, each with CPU, UTCSU, NTI and
// COMCO on a shared LAN (paper Fig. 2) — runs interval-based external
// clock synchronization on it, and reports precision/accuracy measured
// through the hardware snapshot path.
//
// It is the API the examples and the experiment harness consume;
// everything underneath (cluster, clocksync, utcsu, nti, …) remains
// directly usable for fine-grained control.
package core

import (
	"fmt"

	"ntisim/internal/clocksync"
	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/kernel"
	"ntisim/internal/metrics"
	"ntisim/internal/oscillator"
	"ntisim/internal/timefmt"
)

// Options selects the system to build. The zero value of optional
// fields picks the paper's prototype configuration.
type Options struct {
	// Nodes is the cluster size (required, ≥ 2 for synchronization).
	Nodes int
	// Seed makes the whole run reproducible.
	Seed uint64

	// OscillatorHz paces the UTCSUs (default 10 MHz; legal 1..20 MHz).
	OscillatorHz float64
	// OscillatorGrade: "tcxo" (default) or "ocxo".
	OscillatorGrade string

	// RoundPeriodS is the synchronization round period P (default 1 s).
	RoundPeriodS float64
	// FaultTolerance is the number of faulty nodes to tolerate
	// (default: (n-1)/3 capped at 5).
	FaultTolerance int
	// RateSync enables clock-rate synchronization [Scho97].
	RateSync bool
	// MeasureDelays runs a round-trip campaign before starting and uses
	// the measured delay bounds for compensation (recommended).
	MeasureDelays bool

	// GPS lists node indices equipped with (healthy) GPS receivers.
	GPS []int
	// GPSFaults injects receiver faults per node index (implies a
	// receiver on that node).
	GPSFaults map[int][]gps.Fault

	// TimestampMode: "nti" (default), "isr" or "task" — the E2 classes.
	TimestampMode string
	// BackgroundLoad adds competing traffic at this utilization (0..0.9).
	BackgroundLoad float64
}

// System is a built, runnable system.
type System struct {
	Cluster *cluster.Cluster
	opts    Options
	started bool
	// DelayBounds holds the measured bounds when MeasureDelays was set.
	DelayBounds clocksync.DelayBounds
}

// Report summarizes a measurement window.
type Report struct {
	// Precision statistics over the window: max_{p,q}|C_p-C_q| samples.
	Precision metrics.Series
	// Accuracy statistics: max_p|C_p-t| samples.
	Accuracy metrics.Series
	// ContainmentViolations counts samples where some node's accuracy
	// interval did not contain real time (must be 0).
	ContainmentViolations int
	// Samples is the raw trace.
	Samples []metrics.ClusterSample
	// PerNode carries each synchronizer's statistics.
	PerNode []clocksync.Stats
}

// NewSystem builds a system from options.
func NewSystem(opts Options) (*System, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("core: Nodes must be >= 1, got %d", opts.Nodes)
	}
	cfg := cluster.Defaults(opts.Nodes, opts.Seed)
	if opts.OscillatorHz != 0 {
		cfg.OscHz = opts.OscillatorHz
	}
	switch opts.OscillatorGrade {
	case "", "tcxo":
		// cluster default
	case "ocxo":
		hz := cfg.OscHz
		cfg.OscillatorFor = func(int) oscillator.Config { return oscillator.OCXO(hz) }
	default:
		return nil, fmt.Errorf("core: unknown oscillator grade %q", opts.OscillatorGrade)
	}
	if opts.RoundPeriodS != 0 {
		cfg.Sync.RoundPeriod = timefmt.DurationFromSeconds(opts.RoundPeriodS)
	}
	if opts.FaultTolerance != 0 {
		cfg.Sync.F = opts.FaultTolerance
	}
	cfg.Sync.RateSync = opts.RateSync
	switch opts.TimestampMode {
	case "", "nti":
		cfg.Kernel.Mode = kernel.ModeNTI
	case "isr":
		cfg.Kernel.Mode = kernel.ModeISR
	case "task":
		cfg.Kernel.Mode = kernel.ModeTask
	default:
		return nil, fmt.Errorf("core: unknown timestamp mode %q", opts.TimestampMode)
	}
	cfg.BackgroundLoad = opts.BackgroundLoad
	if len(opts.GPS) > 0 || len(opts.GPSFaults) > 0 {
		cfg.GPS = map[int]gps.Config{}
		for _, i := range opts.GPS {
			cfg.GPS[i] = gps.DefaultReceiver()
		}
		for i, faults := range opts.GPSFaults {
			rc := gps.DefaultReceiver()
			rc.Faults = faults
			cfg.GPS[i] = rc
		}
	}
	for i := range cfg.GPS {
		if i < 0 || i >= opts.Nodes {
			return nil, fmt.Errorf("core: GPS node index %d out of range", i)
		}
	}
	sys := &System{Cluster: cluster.New(cfg), opts: opts}
	return sys, nil
}

// Start performs optional delay measurement and launches every node's
// synchronizer. It is idempotent.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.opts.MeasureDelays && s.opts.Nodes >= 2 {
		b := s.Cluster.MeasureDelay(0, 1, 16)
		s.DelayBounds = b
		for _, m := range s.Cluster.Members {
			m.Sync.SetDelayBounds(b)
		}
	}
	s.Cluster.Start(s.Cluster.Now() + 0.5)
}

// Run advances the simulation: warmupS seconds to converge, then
// measureS seconds sampled every sampleS, and returns the report.
func (s *System) Run(warmupS, measureS, sampleS float64) Report {
	s.Start()
	now := s.Cluster.Now()
	s.Cluster.RunUntil(now + warmupS)
	var rep Report
	from := s.Cluster.Now()
	rep.Samples = s.Cluster.RunSampled(from, from+measureS, sampleS)
	for _, cs := range rep.Samples {
		rep.Precision.Add(cs.Precision)
		rep.Accuracy.Add(cs.MaxAbsOffset)
		if !cs.Contained {
			rep.ContainmentViolations++
		}
	}
	for _, m := range s.Cluster.Members {
		rep.PerNode = append(rep.PerNode, m.Sync.Stats())
	}
	return rep
}

// Now returns the current simulated time.
func (s *System) Now() float64 { return s.Cluster.Now() }
