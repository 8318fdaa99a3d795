package sim

import (
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

func TestGroupFlushTieBreakOrder(t *testing.T) {
	sims := []*Simulator{New(1), New(2), New(3)}
	g := NewGroup(1e-3, sims)
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
	g := NewGroup(1e-3, sims)
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

// After idle windows, all but the last of them skipped, every shard's
// clock sits at the horizon and every window counts.
func TestGroupRunUntilReachesHorizon(t *testing.T) {
	sims := []*Simulator{New(1), New(2)}
	g := NewGroup(1e-3, sims)
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
	g := NewGroup(1e-3, sims)
	g.RunUntil(1)
	var got []float64
	g.Post(0, 1, 3.0005, func() { got = append(got, sims[1].Now()) })
	g.Post(1, 0, g.Now()+g.lookahead, func() { got = append(got, sims[0].Now()) })
	g.RunUntil(5)
	if want := []float64{1 + 1e-3, 3.0005}; !reflect.DeepEqual(got, want) {
		t.Fatalf("posts fired at %v, want %v", got, want)
	}
}
