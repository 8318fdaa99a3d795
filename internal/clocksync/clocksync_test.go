package clocksync

import (
	"math"
	"testing"

	"ntisim/internal/gps"
	"ntisim/internal/kernel"
	"ntisim/internal/network"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

func mkNode(s *sim.Simulator, med *network.Medium, id uint16) (*kernel.Node, *utcsu.UTCSU) {
	o := oscillator.New(s, oscillator.TCXO(10e6), string(rune('A'+id)))
	u := utcsu.New(s, o)
	cfg := kernel.Config{Mode: kernel.ModeNTI, UseRxBaseLatch: true}
	return kernel.NewNode(s, id, u, med, cfg), u
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.RoundPeriod != timefmt.DurationFromSeconds(1) {
		t.Errorf("round period %v", p.RoundPeriod)
	}
	if p.RhoPPB != DefaultRhoPPB || p.DelayMax == 0 {
		t.Error("defaults incomplete")
	}
}

func TestMeasureDelayBoundsContainTruth(t *testing.T) {
	s := sim.New(1)
	med := network.NewMedium(s, network.DefaultLAN())
	a, _ := mkNode(s, med, 0)
	b, _ := mkNode(s, med, 1)
	b.EnableRTTResponder()
	var got DelayBounds
	done := false
	MeasureDelay(a, b, 2000, 16, func(db DelayBounds) { got = db; done = true })
	s.RunUntil(20)
	if !done {
		t.Fatal("measurement never completed")
	}
	if got.Samples < 16 {
		t.Errorf("samples = %d", got.Samples)
	}
	// The true trigger-to-trigger one-way delay for 64-byte frames at
	// 10 Mb/s is ≈59 µs: serialization (57.6 µs) − tx FIFO-prefill lead
	// (~2 µs) + propagation + rx arbitration/DMA (~3 µs). The measured
	// bounds must bracket that region tightly.
	mid := (got.Min.Seconds() + got.Max.Seconds()) / 2
	if mid < 50e-6 || mid > 70e-6 {
		t.Errorf("bounds [%v, %v] centred implausibly", got.Min, got.Max)
	}
	if got.Max < got.Min || got.Max.Seconds()-got.Min.Seconds() > 10e-6 {
		t.Errorf("bounds too loose: [%v, %v]", got.Min, got.Max)
	}
}

func TestSynchronizerLifecycle(t *testing.T) {
	s := sim.New(2)
	med := network.NewMedium(s, network.DefaultLAN())
	nodes := make([]*kernel.Node, 3)
	syncs := make([]*Synchronizer, 3)
	for i := range nodes {
		n, u := mkNode(s, med, uint16(i))
		nodes[i] = n
		syncs[i] = New(n, UTCSUClock{UTCSU: u}, Params{
			DelayMin: timefmt.DurationFromSeconds(40e-6),
			DelayMax: timefmt.DurationFromSeconds(120e-6),
		})
	}
	for _, sy := range syncs {
		sy.Start()
		sy.Start() // double-start is a no-op
	}
	s.RunUntil(10)
	st := syncs[0].Stats()
	if st.Rounds < 8 || st.CSPsSent < 8 {
		t.Errorf("rounds=%d sent=%d", st.Rounds, st.CSPsSent)
	}
	if st.CSPsUsed == 0 {
		t.Error("no CSPs used")
	}
	syncs[0].Stop()
	rounds := syncs[0].Stats().Rounds
	s.RunUntil(20)
	if syncs[0].Stats().Rounds != rounds {
		t.Error("rounds after Stop")
	}
	// Other nodes keep going.
	if syncs[1].Stats().Rounds < 15 {
		t.Errorf("peer stalled after node 0 stopped: %d", syncs[1].Stats().Rounds)
	}
}

func TestRateSyncEpochMath(t *testing.T) {
	p := Params{RhoPPB: 3000, F: 0}.withDefaults()
	r := newRateSync(p)
	st := func(s float64) timefmt.Stamp { return timefmt.Stamp(timefmt.DurationFromSeconds(s)) }
	// Peer 1 runs 1000 ppb fast relative to us: over the 16-round
	// baseline of 1 s rounds, its tx stamps gain 16 µs on our rx stamps.
	for k := uint32(1); k <= 17; k++ {
		tSec := float64(k)
		r.observe(1, k, st(tSec*(1+1000e-9)), st(tSec))
	}
	corr, rho, ok := r.apply(17)
	if !ok {
		t.Fatal("no correction at epoch boundary")
	}
	// FTM of {0, +1000}/2 with gain 1/2 → +250 ppb.
	if corr < 150 || corr > 350 {
		t.Errorf("correction %d ppb, want ~250", corr)
	}
	if rho < 50 || rho > 3000 {
		t.Errorf("rho %d out of range", rho)
	}
	// The window restarted: immediate re-apply yields nothing.
	if _, _, ok := r.apply(18); ok {
		t.Error("apply should wait for a fresh epoch")
	}
}

func TestRateSyncIgnoresShortBaselines(t *testing.T) {
	p := Params{}.withDefaults()
	r := newRateSync(p)
	st := func(s float64) timefmt.Stamp { return timefmt.Stamp(timefmt.DurationFromSeconds(s)) }
	r.observe(1, 1, st(1), st(1))
	r.observe(1, 2, st(2), st(2))
	// Round 17 closes the 16-round epoch, so the baseline check (not
	// the epoch gate) is what refuses the correction.
	if _, _, ok := r.apply(17); ok {
		t.Error("two-round baseline must not produce a correction")
	}
}

func TestRateSyncClampsInsaneEstimates(t *testing.T) {
	p := Params{RhoPPB: 2000, F: 0}.withDefaults()
	r := newRateSync(p)
	st := func(s float64) timefmt.Stamp { return timefmt.Stamp(timefmt.DurationFromSeconds(s)) }
	// A bogus peer claiming 1% rate offset.
	for k := uint32(1); k <= 17; k++ {
		tSec := float64(k)
		r.observe(1, k, st(tSec*1.01), st(tSec))
	}
	corr, _, ok := r.apply(17)
	if !ok {
		t.Fatal("no correction")
	}
	if corr > 2000 || corr < -2000 {
		t.Errorf("correction %d not clamped to rho", corr)
	}
}

// TestRateSyncApplyAllocFree pins a rate epoch at zero allocations once
// the peer slots and the rels scratch have grown: 15 peers a few hundred
// ppb apart, one observation at each end of the 16-round baseline.
func TestRateSyncApplyAllocFree(t *testing.T) {
	r := newRateSync(Params{F: 2}.withDefaults())
	st := func(s float64) timefmt.Stamp { return timefmt.Stamp(timefmt.DurationFromSeconds(s)) }
	k := uint32(1)
	epoch := func() {
		for _, round := range []uint32{k, k + rateBaselineRounds} {
			for q := uint16(1); q <= 15; q++ {
				tSec := float64(round)
				r.observe(q, round, st(tSec*(1+float64(q)*100e-9)), st(tSec))
			}
		}
		if _, _, ok := r.apply(k + rateBaselineRounds); !ok {
			t.Fatal("no correction at epoch boundary")
		}
		k += rateBaselineRounds + 1
	}
	epoch() // warm-up: peer slots and scratch
	if a := testing.AllocsPerRun(50, epoch); a != 0 {
		t.Errorf("rate epoch allocates %v times, want 0", a)
	}
}

func TestGPSAttachmentInterval(t *testing.T) {
	s := sim.New(3)
	med := network.NewMedium(s, network.DefaultLAN())
	node, u := mkNode(s, med, 0)
	att := AttachGPS(node, 0, timefmt.DurationFromSeconds(1e-6), 2000)
	if _, ok := att.Interval(u.Now()); ok {
		t.Error("interval before any pulse")
	}
	s.RunUntil(5.0)
	att.OnPulse(gps.Pulse{TrueTime: 5.0, LabelSec: 5, Valid: true})
	s.RunUntil(5.5)
	iv, ok := att.Interval(u.Now())
	if !ok {
		t.Fatal("no interval after pulse")
	}
	// The local clock runs within ppm of true time from 0, so "what the
	// clock should read" is ~5.5 s and the clock reads ~5.5 s: the ref
	// error is the clock's own drift-accumulated offset (µs range).
	if d := math.Abs(iv.Ref.Seconds() - u.Now().Seconds()); d > 100e-6 {
		t.Errorf("external ref differs from clock by %v", d)
	}
	// Uncertainty: accuracy + ρ·0.5s ≈ 1µs + 1µs + margin.
	if iv.Minus.Seconds() < 1e-6 || iv.Minus.Seconds() > 10e-6 {
		t.Errorf("uncertainty %v", iv.Minus)
	}
}

func TestGPSAttachmentRejectsInvalidAndStale(t *testing.T) {
	s := sim.New(4)
	med := network.NewMedium(s, network.DefaultLAN())
	node, u := mkNode(s, med, 0)
	att := AttachGPS(node, 0, timefmt.DurationFromSeconds(1e-6), 2000)
	s.RunUntil(2)
	att.OnPulse(gps.Pulse{TrueTime: 2, LabelSec: 2, Valid: false})
	if att.haveFix {
		t.Error("invalid pulse accepted")
	}
	att.OnPulse(gps.Pulse{TrueTime: 2, LabelSec: 2, Valid: true})
	s.RunUntil(30) // fix is now far older than maxAge
	if _, ok := att.Interval(u.Now()); ok {
		t.Error("stale fix should not produce an interval")
	}
}

func TestUTCSUClockInterface(t *testing.T) {
	s := sim.New(5)
	o := oscillator.New(s, oscillator.Ideal(10e6), "x")
	u := utcsu.New(s, o)
	var c Clock = UTCSUClock{UTCSU: u}
	if c.GranuleSeconds() != timefmt.Granule {
		t.Error("granule wrong")
	}
	if q := timefmt.Stamp(12345); c.QuantizeStamp(q) != q {
		t.Error("UTCSU stamps quantized")
	}
	fired := false
	u.Duty(0).OnFire(func() { fired = true })
	u.Duty(0).Set(timefmt.Stamp(timefmt.DurationFromSeconds(0.5)))
	s.RunUntil(1)
	if !fired {
		t.Error("duty timer of the wrapped UTCSU did not fire")
	}
}

func TestTwoNodeSyncKeepsContainment(t *testing.T) {
	// End-to-end at the clocksync level: 2 nodes, intervals must contain
	// true time through rounds.
	s := sim.New(6)
	med := network.NewMedium(s, network.DefaultLAN())
	var syncs []*Synchronizer
	var units []*utcsu.UTCSU
	for i := 0; i < 2; i++ {
		n, u := mkNode(s, med, uint16(i))
		if i == 1 {
			n.EnableRTTResponder()
		}
		syncs = append(syncs, New(n, UTCSUClock{UTCSU: u}, Params{
			DelayMin: timefmt.DurationFromSeconds(40e-6),
			DelayMax: timefmt.DurationFromSeconds(120e-6),
		}))
		units = append(units, u)
	}
	for _, sy := range syncs {
		sy.Start()
	}
	for x := 5.0; x <= 60; x += 2.5 {
		s.RunUntil(x)
		for i, u := range units {
			snap := u.Snapshot()
			off := snap.Clock.Seconds() - snap.TrueTime
			lo := off - snap.AlphaMinus.Duration().Seconds()
			hi := off + snap.AlphaPlus.Duration().Seconds() + timefmt.Granule
			if lo > 0 || hi < 0 {
				t.Fatalf("node %d t=%v: containment broken [%v, %v]", i, x, lo, hi)
			}
		}
	}
}
