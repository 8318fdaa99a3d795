package sim

import (
	"fmt"
	"reflect"
	"testing"

	"ntisim/internal/telemetry"
)

func TestDeriveSeedMatchesDerive(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF} {
		for _, label := range []string{"", "shard/0", "shard/17", "medium"} {
			a := NewRNG(DeriveSeed(seed, label))
			b := NewRNG(seed).Derive(label)
			for i := 0; i < 8; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d label %q draw %d: DeriveSeed stream %x != Derive stream %x",
						seed, label, i, x, y)
				}
			}
		}
	}
}

// groupEvent is one observation in the per-shard logs used by the
// determinism tests: what ran, where, when, and with which RNG draw.
type groupEvent struct {
	Shard int
	T     float64
	Tag   string
	Draw  uint64
}

// runGroupScenario builds a 4-shard workload where every shard ticks
// locally, consumes its own RNG stream, and posts work to its
// neighbors exactly one lookahead ahead (including same-target-time
// collisions from multiple sources), then runs it to the horizon.
func runGroupScenario(workers int) []groupEvent {
	const (
		shards    = 4
		lookahead = 1e-3
		horizon   = 0.2
	)
	sims := make([]*Simulator, shards)
	logs := make([][]groupEvent, shards)
	for i := range sims {
		sims[i] = New(DeriveSeed(7, fmt.Sprintf("shard/%d", i)))
	}
	g := NewGroup(lookahead, workers, sims)
	for i := range sims {
		i := i
		s := sims[i]
		rng := s.RNG("ticker")
		period := 0.0007 + 0.0001*float64(i)
		s.Every(period, period, func() {
			draw := rng.Uint64()
			logs[i] = append(logs[i], groupEvent{i, s.Now(), "tick", draw})
			// Cross-shard post one lookahead out; every shard targets
			// shard 0 at the same absolute grid time to force (at, seq)
			// ties that only the canonical flush order can break.
			at := s.Now() + lookahead
			dst := (i + 1) % shards
			g.Post(i, dst, at, func() {
				d := sims[dst].RNG("mail").Uint64()
				logs[dst] = append(logs[dst], groupEvent{dst, sims[dst].Now(), "mail", d})
			})
			gridAt := (float64(int(s.Now()/lookahead)) + 2) * lookahead
			g.Post(i, 0, gridAt, func() {
				logs[0] = append(logs[0], groupEvent{0, sims[0].Now(), fmt.Sprintf("grid-from-%d", i), 0})
			})
		})
	}
	g.RunUntil(horizon)
	var all []groupEvent
	for i := range logs {
		all = append(all, logs[i]...)
	}
	return all
}

func TestGroupWorkerCountInvariance(t *testing.T) {
	base := runGroupScenario(1)
	if len(base) == 0 {
		t.Fatal("scenario produced no events")
	}
	for _, workers := range []int{2, 4} {
		got := runGroupScenario(workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d produced a different event history than workers=1 (%d vs %d events)",
				workers, len(got), len(base))
		}
	}
}

func TestGroupFlushTieBreakOrder(t *testing.T) {
	sims := []*Simulator{New(1), New(2), New(3)}
	g := NewGroup(1e-3, 1, sims)
	var order []int
	// Post out of source order, all to shard 0 at the same time; the
	// canonical flush order is (at, src, posting order).
	for _, src := range []int{2, 0, 1} {
		src := src
		g.Post(src, 0, 5e-3, func() { order = append(order, src) })
	}
	g.Post(1, 0, 4e-3, func() { order = append(order, 99) }) // earlier time wins regardless of src
	g.RunUntil(10e-3)
	want := []int{99, 0, 1, 2}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("flush order = %v, want %v", order, want)
	}
}

func TestGroupPostLookaheadViolationPanics(t *testing.T) {
	sims := []*Simulator{New(1), New(2)}
	g := NewGroup(1e-3, 1, sims)
	sims[0].At(0.5e-3, func() {
		// Window end is 1e-3; targeting before it violates lookahead.
		defer func() {
			if recover() == nil {
				t.Error("expected panic from lookahead violation")
			}
		}()
		g.Post(0, 1, 0.9e-3, func() {})
	})
	g.RunUntil(2e-3)
}

// A worker panic reaches RunUntil's caller, in the first window and in
// the first busy window after a long skipped idle stretch.
func TestGroupWorkerPanicPropagates(t *testing.T) {
	for _, at := range []float64{0.4e-3, 2.5} {
		sims := []*Simulator{New(1), New(2), New(3), New(4)}
		g := NewGroup(1e-3, 4, sims)
		sims[2].At(at, func() { panic("shard model exploded") })
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("panic at %v: expected it to propagate to RunUntil's caller", at)
				}
				if s, ok := r.(string); !ok || s != "shard model exploded" {
					t.Fatalf("panic at %v: unexpected panic value %v", at, r)
				}
			}()
			g.RunUntil(5)
		}()
	}
}

// After idle windows, all but the last of them skipped, every shard's
// clock sits at the horizon and every window counts.
func TestGroupRunUntilReachesHorizon(t *testing.T) {
	sims := []*Simulator{New(1), New(2)}
	g := NewGroup(1e-3, 2, sims)
	r := telemetry.New()
	g.SetTelemetry(r)
	sims[1].At(9, func() {}) // beyond the horizon
	if got := g.RunUntil(4.0137); got != 4.0137 {
		t.Fatalf("group clock = %v, want horizon", got)
	}
	for i, s := range sims {
		if s.Now() != 4.0137 {
			t.Fatalf("shard %d clock = %v, want horizon", i, s.Now())
		}
	}
	if n := r.Counter("group.windows").Value(); n != 4014 {
		t.Fatalf("group.windows = %d, want 4014", n)
	}
}

// A post made between RunUntil calls sits in an outbox, so
// it stops the next idle skip and is delivered at its time.
func TestGroupPostBetweenRuns(t *testing.T) {
	sims := []*Simulator{New(1), New(2)}
	g := NewGroup(1e-3, 1, sims)
	g.RunUntil(1)
	var got []float64
	g.Post(0, 1, 3.0005, func() { got = append(got, sims[1].Now()) })
	g.Post(1, 0, g.Now()+g.Lookahead(), func() { got = append(got, sims[0].Now()) })
	g.RunUntil(5)
	if want := []float64{1 + 1e-3, 3.0005}; !reflect.DeepEqual(got, want) {
		t.Fatalf("posts fired at %v, want %v", got, want)
	}
}
