package cluster

import (
	"math"
	"testing"

	"ntisim/internal/gps"
	"ntisim/internal/metrics"
	"ntisim/internal/timefmt"
)

// runSampled advances c to until, sampling the cluster every `every`
// seconds starting at from, and returns the samples.
func runSampled(c *Cluster, from, until, every float64) []metrics.ClusterSample {
	var out []metrics.ClusterSample
	for t := from; t <= until; t += every {
		c.RunUntil(t)
		out = append(out, c.Snapshot())
	}
	return out
}

func TestFourNodeConvergence(t *testing.T) {
	cfg := Defaults(4, 1)
	c := New(cfg)
	c.Start(1)
	// Warm-up: initial steps + a few rounds.
	c.RunUntil(15)
	var prec metrics.Series
	for _, cs := range runSampled(c, 15, 60, 1) {
		prec.Add(cs.Precision)
	}
	if prec.N() == 0 {
		t.Fatal("no samples")
	}
	worst := prec.Max()
	if worst > 5e-6 {
		t.Errorf("worst precision %v, want µs-range", worst)
	}
	// Every node ran rounds.
	for _, m := range c.Members {
		st := m.Sync.Stats()
		if st.Rounds < 40 {
			t.Errorf("node %d only %d rounds", m.Index, st.Rounds)
		}
		if st.CSPsUsed == 0 {
			t.Errorf("node %d used no CSPs", m.Index)
		}
	}
}

func TestPrecisionRequirementHolds(t *testing.T) {
	// Requirement (P): |Cp - Cq| bounded for all correct nodes, at all
	// times after convergence, not just at sampling instants near the
	// resynchronization.
	c := New(Defaults(4, 2))
	c.Start(1)
	c.RunUntil(20)
	for _, cs := range runSampled(c, 20, 50, 0.37) { // off-grid sampling
		if cs.Precision > 10e-6 {
			t.Fatalf("precision %v at t=%v", cs.Precision, cs.TrueTime)
		}
	}
}

func TestAccuracyIntervalContainsTruth(t *testing.T) {
	// Requirement (A): every node's [C-α⁻, C+α⁺] contains real time.
	// This is the core soundness property of interval-based clock sync.
	c := New(Defaults(4, 3))
	c.Start(1)
	c.RunUntil(12)
	bad := 0
	samples := runSampled(c, 12, 60, 0.5)
	for _, cs := range samples {
		if !cs.Contained {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("containment violated in %d/%d samples", bad, len(samples))
	}
}

func TestSixteenNodePrototype(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node run in -short mode")
	}
	c := New(Defaults(16, 4))
	c.Start(1)
	c.RunUntil(20)
	var prec metrics.Series
	for _, cs := range runSampled(c, 20, 60, 1) {
		prec.Add(cs.Precision)
	}
	if prec.Max() > 10e-6 {
		t.Errorf("16-node worst precision %v", prec.Max())
	}
}

func TestDelayMeasurement(t *testing.T) {
	c := New(Defaults(2, 5))
	b := c.MeasureDelay(0, 1, 12)
	if b.Samples < 12 {
		t.Fatalf("only %d RTT samples", b.Samples)
	}
	// True one-way hardware-to-hardware delay at 10 Mb/s with 64-byte
	// frames is ~50-80 µs; bounds must bracket a plausible range.
	if b.Min.Seconds() < 1e-6 || b.Max.Seconds() > 1e-3 || b.Min > b.Max {
		t.Errorf("delay bounds [%v, %v] implausible", b.Min, b.Max)
	}
}

// TestMeasureDelayLossyFallsBackToAPriori: on a lossy medium one lost
// probe or response stalls the round-trip campaign. The cluster must
// then hand back the configured a-priori bounds, never the zero or an
// inverted pair, together with the samples the campaign did take.
func TestMeasureDelayLossyFallsBackToAPriori(t *testing.T) {
	stalled := 0
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := Defaults(4, seed)
		cfg.Medium.CRCErrorProb = 0.3
		c := New(cfg)
		b := c.MeasureDelay(0, 1, 12)
		if b.Min > b.Max {
			t.Fatalf("seed %d: inverted delay bounds [%v, %v]", seed, b.Min, b.Max)
		}
		if b.Samples >= 12 {
			continue // the campaign finished despite the loss
		}
		stalled++
		if b.Min != cfg.Sync.DelayMin || b.Max != cfg.Sync.DelayMax {
			t.Errorf("seed %d: stalled campaign (%d samples) returned [%v, %v], want a-priori [%v, %v]",
				seed, b.Samples, b.Min, b.Max, cfg.Sync.DelayMin, cfg.Sync.DelayMax)
		}
	}
	if stalled == 0 {
		t.Fatal("no campaign stalled; the lossy medium no longer exercises the fallback")
	}
}

func TestMeasuredDelayImprovesSync(t *testing.T) {
	run := func(measure bool) float64 {
		cfg := Defaults(4, 6)
		c := New(cfg)
		if measure {
			b := c.MeasureDelay(0, 1, 12)
			for _, m := range c.Members {
				m.Sync.SetDelayBounds(b)
			}
		}
		c.Start(c.Now() + 1)
		begin := c.Now() + 15
		var prec metrics.Series
		for _, cs := range runSampled(c, begin, begin+40, 1) {
			prec.Add(cs.Precision)
		}
		return prec.Max()
	}
	with := run(true)
	without := run(false)
	// Measured bounds are tighter than the default a priori 0..500 µs,
	// which shrinks delay-compensation enlargement and thus precision.
	if with > without {
		t.Errorf("measured bounds made sync worse: %v vs %v", with, without)
	}
}

func TestBackgroundLoadTolerated(t *testing.T) {
	cfg := Defaults(4, 7)
	cfg.BackgroundLoad = 0.4
	c := New(cfg)
	c.Start(1)
	c.RunUntil(20)
	var prec metrics.Series
	for _, cs := range runSampled(c, 20, 60, 1) {
		prec.Add(cs.Precision)
	}
	// Hardware timestamping is after medium access: load may widen the
	// delay spread a little but precision stays in the µs range.
	if prec.Max() > 20e-6 {
		t.Errorf("precision under load %v", prec.Max())
	}
}

func TestGPSNodeSteersToUTC(t *testing.T) {
	cfg := Defaults(4, 8)
	cfg.GPS = map[int]gps.Config{0: gps.DefaultReceiver()}
	c := New(cfg)
	c.Start(1)
	c.RunUntil(30)
	var acc metrics.Series
	for _, cs := range runSampled(c, 30, 90, 1) {
		acc.Add(cs.MaxAbsOffset)
	}
	// External sync: all nodes' absolute offset from (simulated) UTC
	// must be bounded — the GPS node pulls the whole ensemble.
	if acc.Max() > 50e-6 {
		t.Errorf("worst |C-t| = %v with GPS present", acc.Max())
	}
	st := c.Members[0].Sync.Stats()
	if st.ExternalAccepted == 0 {
		t.Error("GPS intervals never accepted")
	}
}

func TestFaultyGPSRejectedByValidation(t *testing.T) {
	cfg := Defaults(4, 9)
	rx := gps.DefaultReceiver()
	// A 50 ms offset fault from t=40: wildly outside any honest interval.
	rx.Faults = []gps.Fault{{Kind: gps.FaultOffset, Start: 40, Magnitude: 50e-3}}
	cfg.GPS = map[int]gps.Config{0: rx}
	c := New(cfg)
	c.Start(1)
	c.RunUntil(100)
	st := c.Members[0].Sync.Stats()
	if st.ExternalRejected == 0 {
		t.Error("faulty GPS never rejected by clock validation")
	}
	// Despite the faulty receiver, internal precision must survive.
	cs := c.Snapshot()
	if cs.Precision > 20e-6 {
		t.Errorf("faulty GPS wrecked precision: %v", cs.Precision)
	}
}

func TestRateSyncReducesDriftBound(t *testing.T) {
	if testing.Short() {
		t.Skip("long run in -short mode")
	}
	run := func(rateSync bool) (precision float64, meanAlpha float64) {
		cfg := Defaults(6, 10)
		cfg.Sync.RateSync = rateSync
		cfg.Sync.RhoPPB = 3000
		c := New(cfg)
		c.Start(1)
		c.RunUntil(60) // let rate measurements settle
		var prec, alpha metrics.Series
		for _, cs := range runSampled(c, 60, 160, 2) {
			prec.Add(cs.Precision)
		}
		for _, m := range c.Members {
			am, ap := m.U.Alpha()
			alpha.Add(am.Duration().Seconds() + ap.Duration().Seconds())
		}
		return prec.Max(), alpha.Mean()
	}
	pOn, aOn := run(true)
	pOff, aOff := run(false)
	t.Logf("rate sync on: prec=%v alpha=%v; off: prec=%v alpha=%v", pOn, aOn, pOff, aOff)
	if aOn >= aOff {
		t.Errorf("rate sync did not shrink accuracy: %v vs %v", aOn, aOff)
	}
	if pOn > pOff*2 {
		t.Errorf("rate sync degraded precision: %v vs %v", pOn, pOff)
	}
}

func TestNodeCrashTolerated(t *testing.T) {
	cfg := Defaults(5, 11)
	cfg.Sync.F = 1
	c := New(cfg)
	c.Start(1)
	c.RunUntil(20)
	// Crash node 4: stop its synchronizer (it goes silent).
	c.Members[4].Sync.Stop()
	c.RunUntil(25)
	var prec metrics.Series
	for t := 25.0; t <= 60; t += 1 {
		c.RunUntil(t)
		cs := c.Snapshot()
		// Only the surviving nodes matter for precision.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, off := range cs.Offsets {
			if i == 4 {
				continue
			}
			lo = math.Min(lo, off)
			hi = math.Max(hi, off)
		}
		prec.Add(hi - lo)
	}
	if prec.Max() > 10e-6 {
		t.Errorf("crash of one node broke sync: %v", prec.Max())
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func() float64 {
		c := New(Defaults(4, 77))
		c.Start(1)
		c.RunUntil(30)
		return c.Snapshot().Precision
	}
	if run() != run() {
		t.Error("cluster runs are not reproducible")
	}
}

func TestNodeRejoinAfterRestart(t *testing.T) {
	// A node stops (crash), stays silent, then restarts its synchronizer:
	// it must step back into the ensemble (initial correction via StepTo
	// if drifted beyond the threshold, else amortization) and re-converge.
	cfg := Defaults(5, 31)
	cfg.Sync.F = 1
	c := New(cfg)
	c.Start(1)
	c.RunUntil(20)
	victim := c.Members[4]
	victim.Sync.Stop()
	// While down, wreck its clock so rejoin is non-trivial.
	victim.U.StepTo(victim.U.Now().Add(timefmt.DurationFromSeconds(0.05)))
	c.RunUntil(40)
	victim.Sync.Start()
	c.RunUntil(60)
	cs := c.Snapshot()
	if cs.Precision > 10e-6 {
		t.Errorf("precision after rejoin: %v", cs.Precision)
	}
	st := victim.Sync.Stats()
	if st.Rounds == 0 {
		t.Error("victim never resumed rounds")
	}
}

func TestNetworkPartitionSurvived(t *testing.T) {
	// A 15 s total network outage: intervals must keep containing real
	// time (the ACU's deterioration covers the silence — that is what
	// the drift bound is FOR), and the ensemble re-converges after the
	// cable is plugged back in.
	c := New(Defaults(4, 33))
	c.Start(1)
	c.RunUntil(20)
	c.Media[0].SetPartitioned(true)
	violations := 0
	for x := 21.0; x <= 35; x += 1 {
		c.RunUntil(x)
		if !c.Snapshot().Contained {
			violations++
		}
	}
	c.Media[0].SetPartitioned(false)
	c.RunUntil(50)
	if violations > 0 {
		t.Errorf("containment broke during partition: %d samples", violations)
	}
	cs := c.Snapshot()
	if cs.Precision > 10e-6 {
		t.Errorf("no re-convergence after heal: %v", cs.Precision)
	}
	if !cs.Contained {
		t.Error("containment broken after heal")
	}
}

// TestConfigClone: mutating a clone's GPS setup (the map and the Faults
// slices inside it) must not leak into the original — the property the
// harness' per-cell grid mutation depends on.
func TestConfigClone(t *testing.T) {
	base := Defaults(8, 1)
	base.GPS = map[int]gps.Config{
		0: gps.DefaultReceiver(),
		1: {Faults: []gps.Fault{{Kind: gps.FaultOutage, Start: 10}}},
	}

	c := base.Clone()
	c.Nodes = 4
	c.GPS[2] = gps.DefaultReceiver()
	c.GPS[1] = func() gps.Config {
		rc := c.GPS[1]
		rc.Faults[0].Kind = gps.FaultOffset
		rc.Faults = append(rc.Faults, gps.Fault{Kind: gps.FaultFlapping, Start: 99})
		return rc
	}()

	if base.Nodes != 8 {
		t.Errorf("base.Nodes mutated: %d", base.Nodes)
	}
	if len(base.GPS) != 2 {
		t.Errorf("base GPS map mutated: %v", base.GPS)
	}
	if got := base.GPS[1].Faults; len(got) != 1 || got[0].Kind != gps.FaultOutage {
		t.Errorf("base GPS faults mutated: %v", got)
	}

	// A nil GPS map stays nil and the clone is still independent.
	var plain Config = Defaults(2, 1)
	c2 := plain.Clone()
	if c2.GPS != nil {
		t.Errorf("clone invented a GPS map")
	}
	c2.Sync.F = 99
	if plain.Sync.F == 99 {
		t.Errorf("Sync aliased between clone and original")
	}
}

func TestSegmentPrecisionEmpty(t *testing.T) {
	c := New(Defaults(2, 25))
	if p := c.SegmentPrecision(7); p != 0 {
		t.Errorf("empty segment precision %v", p)
	}
}
