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

// Latency distributions of a 25 MHz M68040 running a multitasking
// real-time kernel. They are typed variables, not untyped constants, so
// the clamp sums below round in float64 step by step.
var (
	// ISR dispatch latency: normal(mean, jitter) clamped at min.
	isrMeanS, isrJitterS, isrMinS float64 = 12e-6, 4e-6, 3e-6
	// With intDisableProb an ISR additionally waits for the end of an
	// interrupt-disabled section, uniform in (0, intDisableMaxS].
	intDisableProb, intDisableMaxS float64 = 0.08, 150e-6
	// Task-level dispatch latency (scheduler + queueing): normal(mean,
	// jitter) clamped at min, on top of the ISR that woke the task.
	taskMeanS, taskJitterS, taskMinS float64 = 300e-6, 150e-6, 50e-6
)

// CPU is one node's processor.
type CPU struct {
	s   *sim.Simulator
	rng *sim.RNG
}

// New creates a CPU bound to the simulator; label individualizes its RNG.
func New(s *sim.Simulator, label string) *CPU {
	return &CPU{s: s, rng: s.RNG("cpu/" + label)}
}

// ISRDelay samples one interrupt-dispatch latency.
func (c *CPU) ISRDelay() float64 {
	d := c.rng.TruncNormal(isrMeanS, isrJitterS, isrMinS, isrMeanS+6*isrJitterS+isrMinS)
	if c.rng.Bool(intDisableProb) {
		d += c.rng.Uniform(0, intDisableMaxS)
	}
	return d
}

// TaskDelay samples one task-dispatch latency.
func (c *CPU) TaskDelay() float64 {
	return c.rng.TruncNormal(taskMeanS, taskJitterS, taskMinS, taskMeanS+6*taskJitterS+taskMinS)
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
