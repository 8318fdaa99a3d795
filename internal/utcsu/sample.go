package utcsu

import "ntisim/internal/timefmt"

// SampleUnit models one time/accuracy-stamping unit: an SSU (network
// transmit/receive triggers), GPU (GPS 1pps) or APU (application event)
// channel. An external transition samples local time and both accuracies
// atomically into dedicated registers and optionally raises an interrupt
// (paper §3.3).
//
// Asynchronous inputs pass through a one-stage synchronizer, so the
// sample reflects the clock at the next oscillator tick after the
// physical event — a timing uncertainty of at most 1/fosc, exactly as in
// the chip.
type SampleUnit struct {
	owner *UTCSU
	line  IntLine

	stamp      timefmt.Stamp
	alphaMinus timefmt.Alpha
	alphaPlus  timefmt.Alpha
	seq        uint64
	intrOn     bool
}

// EnableInterrupt selects whether a trigger raises the unit's interrupt.
func (su *SampleUnit) EnableInterrupt(on bool) { su.intrOn = on }

// Trigger registers an input transition occurring now. rising tells the
// edge direction; a unit samples rising edges and ignores falling ones.
// It returns the sampled stamp for convenience (the simulation caller is
// the signal source, e.g. the NTI decode logic).
func (su *SampleUnit) Trigger(rising bool) (timefmt.Stamp, bool) {
	if !rising {
		return 0, false
	}
	u := su.owner
	// Synchronizer: the sample is latched at the next oscillator edge(s).
	n := u.osc.TickIndex(u.sim.Now()) + syncDelayTicks
	su.stamp = timefmt.StampFromTime(u.ltu.valueAt(n))
	su.alphaMinus, su.alphaPlus = u.acu.at(n)
	su.seq++
	if su.intrOn {
		u.intr.raise(u, su.line, "SAMPLE")
	}
	return su.stamp, true
}

// Read returns the sample registers and the sample sequence number, which
// software uses to detect overruns (a new trigger before the previous
// sample was consumed).
func (su *SampleUnit) Read() (stamp timefmt.Stamp, alphaMinus, alphaPlus timefmt.Alpha, seq uint64) {
	return su.stamp, su.alphaMinus, su.alphaPlus, su.seq
}
