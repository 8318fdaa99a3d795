package harness

import (
	"bytes"
	"strings"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/discipline"
	"ntisim/internal/gps"
)

// testSpec is a small but real campaign: 4 points × 2 seeds = 8 cells.
func testSpec(workers int) Spec {
	return Spec{
		Name:         "test",
		Base:         cluster.Defaults(2, 1),
		Points:       NodesAxis(2, 3, 4, 5).Points,
		Seeds:        []uint64{7, 8},
		WarmupS:      2,
		WindowS:      8,
		SampleEveryS: 1,
		DelayProbes:  4,
		Workers:      workers,
	}
}

func jsonl(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestParallelDeterminism is the harness' core guarantee: the same
// campaign run with 1 worker and with many workers produces
// byte-identical JSONL artifacts, because cells are independent
// simulations keyed by cell ID (stable grid order), not by completion
// order.
func TestParallelDeterminism(t *testing.T) {
	serial := Run(testSpec(1))
	parallel := Run(testSpec(4))
	if got, want := len(parallel.Results), 8; got != want {
		t.Fatalf("cells = %d, want %d", got, want)
	}
	for _, r := range serial.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
	}
	a, b := jsonl(t, serial), jsonl(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

func TestCellsStableOrder(t *testing.T) {
	sp := testSpec(1)
	cells := sp.Cells()
	if len(cells) != 8 {
		t.Fatalf("len(cells) = %d, want 8", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
	}
	// Seed-major: first 4 cells carry seed 7.
	if cells[0].Seed != 7 || cells[3].Seed != 7 || cells[4].Seed != 8 {
		t.Errorf("unexpected seed order: %v %v %v", cells[0].Seed, cells[3].Seed, cells[4].Seed)
	}
	if cells[0].Key() != "n=2/seed=7" {
		t.Errorf("Key() = %q", cells[0].Key())
	}
}

func TestResultSanity(t *testing.T) {
	c := Run(testSpec(4))
	for _, r := range c.Results {
		if r.Samples == 0 {
			t.Fatalf("%s: no samples", r.Key())
		}
		if r.Precision.N != r.Samples {
			t.Errorf("%s: precision N %d != samples %d", r.Key(), r.Precision.N, r.Samples)
		}
		// Synchronized small clusters should be in the µs range.
		if r.Precision.Mean <= 0 || r.Precision.Mean > 1e-3 {
			t.Errorf("%s: implausible mean precision %g s", r.Key(), r.Precision.Mean)
		}
		if r.Events == 0 || r.SimS <= 0 {
			t.Errorf("%s: missing throughput data (events=%d sim=%g)", r.Key(), r.Events, r.SimS)
		}
		if r.Sync.CSPsSent == 0 || r.CSPUse <= 0 {
			t.Errorf("%s: no CSP traffic recorded", r.Key())
		}
	}
}

// TestCellPanicIsCaptured: a failing cell must not take down the
// campaign — it lands as Result.Err and Failed reports it.
func TestCellPanicIsCaptured(t *testing.T) {
	sp := testSpec(2)
	sp.Seeds = []uint64{7}
	sp.Points = append(NodesAxis(2).Points, Point{
		Label:  "bad",
		Mutate: func(c *cluster.Config) { c.Nodes = 0 }, // cluster.New panics
	})
	c := Run(sp)
	if c.Results[1].Err == "" {
		t.Fatal("expected cell 1 to capture the construction panic")
	}
	if c.Results[0].Err != "" {
		t.Fatalf("healthy cell errored: %s", c.Results[0].Err)
	}
	if len(c.Failed()) != 1 {
		t.Fatalf("Failed() = %d, want 1", len(c.Failed()))
	}
}

func TestWriteArtifacts(t *testing.T) {
	sp := testSpec(2)
	sp.Points = NodesAxis(2).Points
	sp.Seeds = []uint64{7}
	c := Run(sp)
	dir := t.TempDir()
	paths, err := c.WriteArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("artifacts = %v, want jsonl+csv+manifest", paths)
	}
	var csvBuf bytes.Buffer
	if err := c.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 { // header + one cell
		t.Fatalf("csv lines = %d:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "cell,label,seed,precision_mean_s") {
		t.Errorf("unexpected csv header %q", lines[0])
	}
	m := c.Manifest()
	if m.Cells != 1 || m.Workers != 2 || m.GoVersion == "" {
		t.Errorf("manifest incomplete: %+v", m)
	}
}

func TestCrossAndAxes(t *testing.T) {
	pts := Cross(NodesAxis(2, 4), LoadAxis(0, 0.3))
	if len(pts) != 4 {
		t.Fatalf("cross size = %d, want 4", len(pts))
	}
	if pts[1].Label != "n=2,load=30%" {
		t.Errorf("label = %q", pts[1].Label)
	}
	if pts[1].Params["nodes"] != "2" || pts[1].Params["load"] != "0.3" {
		t.Errorf("params = %v", pts[1].Params)
	}
	cfg := cluster.Defaults(8, 1)
	pts[1].Mutate(&cfg)
	if cfg.Nodes != 2 || cfg.BackgroundLoad != 0.3 {
		t.Errorf("mutate: nodes=%d load=%g", cfg.Nodes, cfg.BackgroundLoad)
	}
	if Cross() != nil {
		t.Error("empty cross should be nil")
	}
}

// TestFaultAxisIsolation: FaultAxis mutators install fresh GPS maps per
// call, so two cells built from the same base never share receiver
// state.
func TestFaultAxisIsolation(t *testing.T) {
	ax := FaultAxis(2,
		FaultScenario{Kind: gps.FaultOffset, Magnitude: 20e-3, StartS: 5},
		FaultScenario{Kind: gps.FaultNone},
	)
	base := cluster.Defaults(4, 1)
	a := base.Clone()
	ax.Points[0].Mutate(&a)
	b := base.Clone()
	ax.Points[1].Mutate(&b)
	if len(a.GPS[1].Faults) != 1 {
		t.Fatalf("faulty cell lost its fault: %+v", a.GPS)
	}
	if len(b.GPS[1].Faults) != 0 {
		t.Fatalf("fault leaked across cells: %+v", b.GPS)
	}
	if base.GPS != nil {
		t.Fatal("base config was mutated")
	}
}

// TestStandardFaultsInjectEveryKind: every non-control cell of the
// standard fault matrix must actually perturb its receiver. Under
// validation the faulty fixes show up as rejected external references
// (an outage as missing accepted ones); under naive trust the offset,
// wrong-second and ramp faults drag the cluster off true time.
func TestStandardFaultsInjectEveryKind(t *testing.T) {
	sp := Spec{
		Name:         "faults",
		Base:         cluster.Defaults(4, 1),
		Points:       FaultAxis(2, StandardFaults(5, false, true)...).Points,
		WarmupS:      2,
		WindowS:      20,
		SampleEveryS: 1,
		DelayProbes:  4,
	}
	c := Run(sp)
	byLabel := map[string]*Result{}
	for i := range c.Results {
		r := &c.Results[i]
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Key(), r.Err)
		}
		byLabel[r.Label] = r
	}
	healthy := byLabel["fault=none/validated"]
	if healthy.Sync.ExternalRejected != 0 {
		t.Fatalf("healthy control rejected %d fixes", healthy.Sync.ExternalRejected)
	}
	for _, kind := range []string{"offset", "wrong-second", "flapping", "ramp-drift"} {
		if r := byLabel["fault="+kind+"/validated"]; r.Sync.ExternalRejected == 0 {
			t.Errorf("%s: validation rejected nothing (%d accepted) — fault not injected", r.Label, r.Sync.ExternalAccepted)
		}
	}
	if r := byLabel["fault=outage/validated"]; r.Sync.ExternalAccepted >= healthy.Sync.ExternalAccepted {
		t.Errorf("%s: %d accepted fixes, healthy control %d — outage not injected",
			r.Label, r.Sync.ExternalAccepted, healthy.Sync.ExternalAccepted)
	}
	for _, kind := range []string{"offset", "wrong-second", "ramp-drift"} {
		if r := byLabel["fault="+kind+"/naive-trust"]; r.ContainmentViolations == 0 {
			t.Errorf("%s: naive trust kept containment (worst |C-t| %g s) — fault not injected", r.Label, r.Accuracy.Max)
		}
	}
}

// TestTraceDeterminism pins the tracing acceptance bound: with Trace
// enabled, the same seed produces byte-identical per-cell trace
// exports whether the campaign runs on 1 worker or many. Tracing is
// purely passive — it consumes no randomness and schedules nothing —
// so worker count must not leak into the records.
func TestTraceDeterminism(t *testing.T) {
	mk := func(workers int) Spec {
		sp := testSpec(workers)
		sp.Points = NodesAxis(2, 3).Points
		sp.Seeds = []uint64{7}
		sp.Trace = true
		return sp
	}
	serial := Run(mk(1))
	parallel := Run(mk(4))
	for i, r := range serial.Results {
		if r.Trace == nil || parallel.Results[i].Trace == nil {
			t.Fatalf("cell %s: trace not captured", r.Key())
		}
		if r.Trace.Len() == 0 {
			t.Fatalf("cell %s: empty trace", r.Key())
		}
		var a, b bytes.Buffer
		if err := r.Trace.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Results[i].Trace.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("cell %s: trace bytes differ between 1 and 4 workers", r.Key())
		}
	}
}

// TestDisciplineAxisDeterminism extends the core determinism guarantee
// to the discipline axis: every registered discipline (including the
// windowed, arrival-order-sensitive ones) run under 1 worker and many
// workers yields byte-identical artifacts, and each cell reports the
// discipline it ran in its params.
func TestDisciplineAxisDeterminism(t *testing.T) {
	mk := func(workers int) Spec {
		sp := testSpec(workers)
		sp.Points = Cross(DisciplineAxis(), NodesAxis(4))
		sp.Seeds = []uint64{7}
		return sp
	}
	serial := Run(mk(1))
	parallel := Run(mk(4))
	if len(serial.Results) != len(discipline.Names()) {
		t.Fatalf("cells = %d, want one per discipline (%d)", len(serial.Results), len(discipline.Names()))
	}
	for _, r := range serial.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
		if r.Params["discipline"] == "" {
			t.Fatalf("cell %s lost its discipline param: %v", r.Key(), r.Params)
		}
	}
	a, b := jsonl(t, serial), jsonl(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs between 1 and 4 workers with the discipline axis")
	}
}

// shardedSpec is a WANs-of-LANs campaign whose cells run the
// segment-sharded parallel kernel: the base topology is 4 nodes over 2
// segments (plus F+1 = 2 gateways) and `shards` sets the worker
// goroutine count of each cell's sim.Group. The segments axis also
// covers seg=1, so every run exercises the classic single-kernel path
// next to the sharded one.
func shardedSpec(shards int) Spec {
	base := cluster.Defaults(4, 1)
	base.Sync.F = 1
	base.Segments = 2
	base.Shards = shards
	return Spec{
		Name:         "sharded-test",
		Base:         base,
		Points:       Cross(DisciplineAxis(), SegmentsAxis(1, 2)),
		Seeds:        []uint64{7},
		WarmupS:      4,
		WindowS:      8,
		SampleEveryS: 1,
		DelayProbes:  4,
		Trace:        true,
		Workers:      2,
	}
}

// TestShardedByteIdentityOverDisciplineGrid is the tentpole acceptance
// gate at campaign level: over the full discipline grid, a sharded
// campaign produces byte-identical JSONL and per-cell merged-trace
// artifacts whether each cluster's segment shards run on 1 worker
// goroutine (the single-kernel baseline) or N. Worker count is a pure
// execution knob — it must never leak into results.
func TestShardedByteIdentityOverDisciplineGrid(t *testing.T) {
	serial := Run(shardedSpec(1))
	parallel := Run(shardedSpec(2))
	want := len(discipline.Names()) * 2 // × segments {1, 2}
	if len(serial.Results) != want {
		t.Fatalf("cells = %d, want %d", len(serial.Results), want)
	}
	for _, r := range serial.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
	}
	a, b := jsonl(t, serial), jsonl(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs between 1-worker and 2-worker shard execution")
	}
	for i, r := range serial.Results {
		var x, y bytes.Buffer
		if err := r.Trace.WriteJSONL(&x); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Results[i].Trace.WriteJSONL(&y); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.Bytes(), y.Bytes()) {
			t.Fatalf("cell %s: merged trace bytes differ between 1 and 2 shard workers", r.Key())
		}
	}
}

// TestShardedCampaignRace layers every concurrency mechanism at once —
// the harness worker pool outside, each cell's sim.Group shard workers
// inside, up to a 3-segment gateway chain — and just demands clean
// completion. Its real assertions come from the race detector: make ci
// runs this package under -race.
func TestShardedCampaignRace(t *testing.T) {
	sp := shardedSpec(3)
	sp.Trace = false
	sp.Points = Cross(SegmentsAxis(2, 3), NodesAxis(6))
	c := Run(sp)
	if got := len(c.Results); got != 2 {
		t.Fatalf("cells = %d, want 2", got)
	}
	for _, r := range c.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
		if r.Samples == 0 || r.Sync.CSPsSent == 0 {
			t.Fatalf("cell %s ran empty (samples=%d, csps=%d)", r.Key(), r.Samples, r.Sync.CSPsSent)
		}
	}
}

// TestDisciplineAxisPanicsOnUnknown: the axis is the last line of
// defense after CLI validation; it must refuse silently falling back.
func TestDisciplineAxisPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DisciplineAxis with unknown name should panic")
		}
	}()
	DisciplineAxis("no-such-filter")
}
