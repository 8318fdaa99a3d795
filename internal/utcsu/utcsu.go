// Package utcsu is a register-accurate behavioural model of the
// Universal Time Coordinated Synchronization Unit ASIC (paper §3.3).
//
// The real chip (0.7 µm CMOS, ~65k gates) contains:
//
//   - LTU: an adder-based local clock in 56-bit NTP format, fine-grained
//     rate adjustable in ~10 ns/s steps, with state adjustment via
//     continuous amortization and hardware leap-second support;
//   - ACU: two more adder-based "clocks" holding the accuracies α⁻/α⁺,
//     automatically deteriorated to account for the maximum oscillator
//     drift, saturating instead of wrapping;
//   - SSU ×6, GPU ×3, APU ×9: time/accuracy-stamping units for network
//     triggers, GPS 1pps inputs and application events;
//   - several 48-bit duty timers raising interrupts when local time
//     reaches a programmed value;
//   - an interrupt unit mapping all sources onto the INTN/INTT/INTA pins;
//   - SNU/BTU: snapshot and built-in-test support.
//
// The model covers what the NTI's data path and the clock
// synchronization drive: the LTU, ACU, SSUs, GPUs, duty timers,
// interrupt unit, SNU and the BTU self-test, all as Go methods. The
// chip's memory-mapped register file, its 1PPS output pins, the
// leap-second logic and the NTPA bus are not modelled.
//
// The model keeps the clock as piecewise-affine functions of the
// oscillator tick index, so reading it is O(1) and its granularity
// (2⁻²⁴ s) and rate-adjustment step (2⁻⁵¹ s per tick) are bit-exact.
package utcsu

import (
	"fmt"

	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// Interrupt lines of the UTCSU (paper Fig. 5).
type IntLine int

const (
	INTN IntLine = iota // network-related (SSU sampling)
	INTT                // timer-related (duty timers, amortization end)
	INTA                // application-related (APU, GPU)
	numIntLines
)

func (l IntLine) String() string {
	switch l {
	case INTN:
		return "INTN"
	case INTT:
		return "INTT"
	case INTA:
		return "INTA"
	}
	return fmt.Sprintf("IntLine(%d)", int(l))
}

// Counts of the timestamping units (paper §3.3).
const (
	NumSSU = 6 // network send/receive stamp units
	NumGPU = 3 // GPS 1pps stamp units
	NumAPU = 9 // application stamp units
)

// syncDelayTicks is the depth of the one-stage input synchronizer for
// asynchronous inputs: a sample reflects the clock one tick after the
// event.
const syncDelayTicks = 1

// UTCSU is one chip instance. It is not safe for concurrent use; the
// simulation is single-threaded by construction.
type UTCSU struct {
	sim *sim.Simulator
	osc *oscillator.Oscillator

	ltu ltu
	acu acu

	ssu [NumSSU]SampleUnit
	gpu [NumGPU]SampleUnit
	apu [NumAPU]SampleUnit

	timers []*DutyTimer
	intr   interruptUnit
}

// New builds a UTCSU paced by osc, with the clock and accuracies at
// zero and the nominal-rate augend loaded. The UTCSU accepts 1..20 MHz
// (paper §3.3).
func New(s *sim.Simulator, osc *oscillator.Oscillator) *UTCSU {
	if osc == nil {
		panic("utcsu: nil oscillator")
	}
	f := osc.NominalHz()
	if f < 1e6 || f > 20e6 {
		panic(fmt.Sprintf("utcsu: oscillator frequency %v Hz outside 1..20 MHz", f))
	}
	u := &UTCSU{sim: s, osc: osc}
	u.ltu.init(u)
	u.acu.init(u)
	for i := range u.ssu {
		u.ssu[i].owner, u.ssu[i].line = u, INTN
	}
	for i := range u.gpu {
		u.gpu[i].owner, u.gpu[i].line = u, INTA
	}
	for i := range u.apu {
		u.apu[i].owner, u.apu[i].line = u, INTA
	}
	return u
}

// tick returns the current oscillator tick index.
func (u *UTCSU) tick() uint64 { return u.osc.TickIndex(u.sim.Now()) }

// Now returns the current clock reading quantized to the 2⁻²⁴ s register
// granularity, exactly what software sees in the timestamp registers.
func (u *UTCSU) Now() timefmt.Stamp {
	return timefmt.StampFromTime(u.ltu.valueAt(u.tick()))
}

// SSU, GPU and APU accessors.

// SSU returns network timestamp unit i (0..5).
func (u *UTCSU) SSU(i int) *SampleUnit { return &u.ssu[i] }

// GPU returns GPS timestamp unit i (0..2).
func (u *UTCSU) GPU(i int) *SampleUnit { return &u.gpu[i] }

// APU returns application timestamp unit i (0..8).
func (u *UTCSU) APU(i int) *SampleUnit { return &u.apu[i] }

// Snapshot atomically captures clock, accuracies and the simulated true
// time — the model of the SNU's HWSNAP feature, which the paper provides
// precisely "to facilitate an experimental evaluation of precision/
// accuracy". The true-time field is the simulation's ground truth.
type Snapshot struct {
	TrueTime   float64
	Clock      timefmt.Stamp
	AlphaMinus timefmt.Alpha
	AlphaPlus  timefmt.Alpha
}

// Snapshot triggers the SNU.
func (u *UTCSU) Snapshot() Snapshot {
	n := u.tick()
	am, ap := u.acu.at(n)
	return Snapshot{
		TrueTime:   u.sim.Now(),
		Clock:      timefmt.StampFromTime(u.ltu.valueAt(n)),
		AlphaMinus: am,
		AlphaPlus:  ap,
	}
}

// SelfTest is the BTU: it exercises the adder path against a recomputed
// reference and verifies the checksum generator, returning an error on
// mismatch (always nil in this model unless the state was corrupted).
func (u *UTCSU) SelfTest() error {
	n := u.tick()
	v := u.ltu.valueAt(n)
	w := u.ltu.valueAt(n) // re-read must be identical at the same tick
	if v != w {
		return fmt.Errorf("utcsu: BTU adder mismatch: %v vs %v", v, w)
	}
	s := timefmt.StampFromTime(v)
	ts, ms := s.Words()
	if got, ok := timefmt.FromWords(ts, ms); !ok || got != s {
		return fmt.Errorf("utcsu: BTU checksum path corrupt")
	}
	return nil
}
