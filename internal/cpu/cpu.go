// Package cpu models the node processor's software timing behaviour.
//
// Purely software-based clock synchronization timestamps CSPs in steps 1
// and 7 of the paper's transmission/reception sequence (§3.1), so the
// achievable uncertainty ε is dominated by interrupt latency (impaired by
// code sections with interrupts disabled) and task scheduling jitter.
// This package provides those latency distributions for an MVME-162-class
// CPU (M68040 + pSOS⁺ᵐ) so the software-only baselines of experiment E2
// suffer realistic impairments.
package cpu

import "ntisim/internal/sim"

// Config describes the latency distributions.
type Config struct {
	// ISR dispatch latency: normal(mean, jitter) clamped at Min.
	ISRLatencyMeanS   float64
	ISRLatencyJitterS float64
	ISRLatencyMinS    float64
	// With IntDisableProb an ISR additionally waits for the end of an
	// interrupt-disabled section, uniform in (0, IntDisableMaxS].
	IntDisableProb float64
	IntDisableMaxS float64
	// Task-level dispatch latency (scheduler + queueing): normal(mean,
	// jitter) clamped at Min, on top of the ISR that woke the task.
	TaskLatencyMeanS   float64
	TaskLatencyJitterS float64
	TaskLatencyMinS    float64
}

// DefaultMVME162 returns timings representative of a 25 MHz M68040
// running a multitasking real-time kernel.
func DefaultMVME162() Config {
	return Config{
		ISRLatencyMeanS:    12e-6,
		ISRLatencyJitterS:  4e-6,
		ISRLatencyMinS:     3e-6,
		IntDisableProb:     0.08,
		IntDisableMaxS:     150e-6,
		TaskLatencyMeanS:   300e-6,
		TaskLatencyJitterS: 150e-6,
		TaskLatencyMinS:    50e-6,
	}
}

// CPU is one node's processor.
type CPU struct {
	s   *sim.Simulator
	cfg Config
	rng *sim.RNG
}

// New creates a CPU bound to the simulator; label individualizes its RNG.
func New(s *sim.Simulator, cfg Config, label string) *CPU {
	return &CPU{s: s, cfg: cfg, rng: s.RNG("cpu/" + label)}
}

// ISRDelay samples one interrupt-dispatch latency.
func (c *CPU) ISRDelay() float64 {
	d := c.rng.TruncNormal(c.cfg.ISRLatencyMeanS, c.cfg.ISRLatencyJitterS,
		c.cfg.ISRLatencyMinS, c.cfg.ISRLatencyMeanS+6*c.cfg.ISRLatencyJitterS+c.cfg.ISRLatencyMinS)
	if c.cfg.IntDisableProb > 0 && c.rng.Bool(c.cfg.IntDisableProb) {
		d += c.rng.Uniform(0, c.cfg.IntDisableMaxS)
	}
	return d
}

// TaskDelay samples one task-dispatch latency.
func (c *CPU) TaskDelay() float64 {
	return c.rng.TruncNormal(c.cfg.TaskLatencyMeanS, c.cfg.TaskLatencyJitterS,
		c.cfg.TaskLatencyMinS, c.cfg.TaskLatencyMeanS+6*c.cfg.TaskLatencyJitterS+c.cfg.TaskLatencyMinS)
}

// RunISR schedules fn after a sampled interrupt latency.
func (c *CPU) RunISR(fn func()) {
	c.s.After(c.ISRDelay(), fn)
}

// RunTask schedules fn after a sampled task-dispatch latency (measured
// from now, i.e. on top of whatever context invoked it).
func (c *CPU) RunTask(fn func()) {
	c.s.After(c.TaskDelay(), fn)
}
