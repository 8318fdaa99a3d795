package cluster

import (
	"testing"

	"ntisim/internal/adversary"
	"ntisim/internal/csp"
	"ntisim/internal/gps"
	"ntisim/internal/service"
	"ntisim/internal/trace"
)

// TestAdversaryLieTraceWiring runs a traced adversarial cluster and
// checks the lie bookkeeping end to end: every delivered lie appears
// both in the layer's counters and as a KindLie trace record naming a
// cast traitor as the lying source and an honest node as the receiver.
func TestAdversaryLieTraceWiring(t *testing.T) {
	cfg := Defaults(4, 7)
	cfg.Adversary = adversary.Spec{TraitorFrac: 0.3, Attack: adversary.AttackTwoFaced}
	cfg.Tracer = trace.New(trace.Options{})
	c := New(cfg)
	c.Start(0.5)
	c.RunUntil(10)

	if got := c.TraitorCount(); got != 1 {
		t.Fatalf("TraitorCount = %d, want 1 (0.3 of 4)", got)
	}
	lies := 0
	for _, r := range c.Trace().Records() {
		if r.Kind != trace.KindLie {
			continue
		}
		lies++
		if !c.Traitor(int(r.B)) {
			t.Fatalf("lie record names honest node %d as the liar", r.B)
		}
		if c.Traitor(int(r.Node)) {
			t.Fatalf("lie record delivered to traitor %d (traitors lie, they are not lied to here)", r.Node)
		}
		if r.V == 0 {
			t.Fatal("lie record carries a zero stamp shift")
		}
	}
	if lies == 0 {
		t.Fatal("traced adversarial run produced no lie records")
	}
	if uint64(lies) != c.AdversaryLies() {
		t.Fatalf("trace has %d lies but the layer counted %d", lies, c.AdversaryLies())
	}
}

// TestStationFramesAreOneHeader pins the traffic the COMCO model relies
// on: every frame a station puts on a medium is exactly one 64-byte
// CSP header, so the controller DMAs 16 header words and nothing else.
// The run is the byzantine campaign's base (two segments joined by
// relaying gateways, colluding liars, triple-source GNSS) with RTT
// probes and a serving client population, traced for a few sim-s.
func TestStationFramesAreOneHeader(t *testing.T) {
	cfg := Defaults(8, 11)
	cfg.Segments = 2
	cfg.GatewaysPerLink = 3
	cfg.GPS = map[int]gps.Config{0: gps.DefaultReceiver(), 1: gps.DefaultReceiver()}
	cfg.Sync.SourceF = 1
	cfg.Adversary = adversary.Spec{
		TraitorFrac: 0.25, Attack: adversary.AttackCollude, MagnitudeS: 500e-6, Sources: 3,
		GNSS: []adversary.GNSSEvent{{Kind: adversary.GNSSSpoof, StartS: 2, EndS: 4, OffsetS: 20e-3, Sources: 1}},
	}
	cfg.Serving = service.Config{Clients: 100000}
	cfg.Tracer = trace.New(trace.Options{})
	c := New(cfg)
	c.MeasureDelay(0, 1, 8)
	c.Start(c.Now() + 0.5)
	c.StartServing(c.Now() + 0.5)
	c.RunUntil(c.Now() + 5)

	seen := map[trace.Kind]int{}
	stationFrames := 0
	for _, r := range c.Trace().Records() {
		seen[r.Kind]++
		if r.Kind != trace.KindFrameTx || r.Node < 0 {
			continue
		}
		stationFrames++
		if r.B != csp.HeaderSize {
			t.Fatalf("station %d sent a %d-byte frame, want %d: %s", r.Node, r.B, csp.HeaderSize, r)
		}
	}
	t.Logf("%d station frames, %d lies, %d round updates", stationFrames, seen[trace.KindLie], seen[trace.KindRoundUpdate])
	for _, k := range []trace.Kind{trace.KindFrameTx, trace.KindLie, trace.KindQueryServed, trace.KindRoundUpdate} {
		if seen[k] == 0 {
			t.Errorf("no %v records: the run does not exercise that traffic", k)
		}
	}
}
