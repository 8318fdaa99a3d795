package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ntisim/internal/telemetry"
)

// windowScenario is one sparse cross-shard workload for FuzzGroupWindows.
type windowScenario struct {
	seed    uint64
	shards  int  // 1..4
	windows int  // horizon in windows
	offGrid bool // horizon half a window short of a window end
	idle    int  // idle gaps last idle..2·idle-1 windows
}

const scenarioLookahead = 1e-3

// windowGrid holds the window ends a Group started at 0 walks through:
// repeated now+lookahead, the same float arithmetic as RunUntil, so an
// event or post at grid[k] lands exactly on a window end.
type windowGrid []float64

func (g *windowGrid) at(k int) float64 {
	for len(*g) <= k {
		n := len(*g)
		if n == 0 {
			*g = append(*g, 0)
			continue
		}
		*g = append(*g, (*g)[n-1]+scenarioLookahead)
	}
	return (*g)[k]
}

// endOf returns the index of the first window end at or after t.
func (g *windowGrid) endOf(t float64) int {
	for len(*g) == 0 || (*g)[len(*g)-1] < t {
		g.at(len(*g))
	}
	return sort.SearchFloat64s(*g, t)
}

// firing is one logged callback: where and when it ran, which chain it
// belongs to, how the previous hop scheduled it, and the shard-local
// RNG draw it consumed.
type firing struct {
	Shard int
	T     float64
	Chain int
	Via   string
	Draw  uint64
}

// run builds the scenario on a fresh Group and drives it to the
// horizon, in one RunUntil or one window per call.
// It returns the firing log (shard-major) and the telemetry of the
// group and every shard.
func (sc windowScenario) run(stepped bool) ([]firing, telemetry.Snapshot) {
	sims := make([]*Simulator, sc.shards)
	regs := []*telemetry.Registry{telemetry.New()}
	for i := range sims {
		sims[i] = New(DeriveSeed(sc.seed, fmt.Sprintf("shard/%d", i)))
		r := telemetry.New()
		r.SetShard(i)
		sims[i].Observe(nil, r)
		regs = append(regs, r)
	}
	g := NewGroup(scenarioLookahead, sims)
	g.SetTelemetry(regs[0])
	logs := make([][]firing, sc.shards)
	grids := make([]windowGrid, sc.shards)
	rngs := make([]*RNG, sc.shards)
	for i, s := range sims {
		rngs[i] = s.RNG("chain")
	}

	// step fires one hop of a chain on shard i and schedules the next,
	// locally or on another shard, until its hop budget runs out.
	var step func(i, chain, hops int, via string)
	step = func(i, chain, hops int, via string) {
		s, rng := sims[i], rngs[i]
		r := rng.Uint64()
		logs[i] = append(logs[i], firing{i, s.Now(), chain, via, r})
		if hops == 0 {
			return
		}
		next := func(via string) func() { return func() { step(i, chain, hops-1, via) } }
		grid := &grids[i]
		k := grid.endOf(s.Now())
		switch r % 5 {
		case 0: // a short local hop inside the next few windows
			s.After(rng.Float64()*3*scenarioLookahead, next("local"))
		case 1: // a local event exactly on a window end
			s.At(grid.at(k+int((r>>8)%3)), next("local-end"))
		case 2: // a long idle stretch, with a cancelled decoy left behind
			gap := float64(sc.idle + int((r>>8)%uint64(sc.idle)))
			s.At(s.Now()+gap*scenarioLookahead/2, func() {}).Cancel()
			s.After(gap*scenarioLookahead, next("idle"))
		default: // a cross-shard hop, at least the lookahead away or on a window end
			// A callback at exactly a window end may run in the window
			// after it (when a flush delivered it), so only ends from
			// k+1 on are sure to lie at or beyond the current window's.
			dst := (i + 1 + int((r>>8)%uint64(sc.shards))) % sc.shards
			at, via := s.Now()+scenarioLookahead*(1+rng.Float64()), "post"
			if r%5 == 4 {
				at, via = grid.at(k+1+int((r>>16)%3)), "post-end"
			}
			g.Post(i, dst, at, func() { step(dst, chain, hops-1, via) })
		}
	}
	for i, s := range sims {
		rng := s.RNG("start")
		for c := 0; c < 2; c++ {
			chain := 2*i + c
			s.At((0.01+rng.Float64()*4)*scenarioLookahead, func() { step(i, chain, 60, "start") })
		}
	}

	var hg windowGrid
	h := hg.at(sc.windows)
	if sc.offGrid {
		h -= scenarioLookahead / 2
	}
	if stepped {
		for g.Now() < h {
			g.RunUntil(min(g.Now()+g.lookahead, h))
		}
	} else {
		g.RunUntil(h)
	}
	var all []firing
	for _, l := range logs {
		all = append(all, l...)
	}
	return all, telemetry.Capture(g.Now(), regs...)
}

// FuzzGroupWindows checks that skipping idle windows is invisible: one
// RunUntil to the horizon (which skips) and stepping one window per
// call (which never skips) fire the same callbacks at the same times
// with the same draws, and leave the same group and shard telemetry.
func FuzzGroupWindows(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shards, windows, idle uint16, offGrid bool) {
		sc := windowScenario{
			seed:    seed,
			shards:  1 + int(shards%4),
			windows: 1 + int(windows%6000),
			offGrid: offGrid,
			idle:    1 + int(idle%3000),
		}
		log, tm := sc.run(false)
		l, m := sc.run(true)
		if !reflect.DeepEqual(log, l) {
			t.Errorf("%+v stepped: firing log differs (%d vs %d firings)", sc, len(l), len(log))
		}
		if !reflect.DeepEqual(tm, m) {
			t.Errorf("%+v stepped: telemetry differs\n got %+v\nwant %+v", sc, m, tm)
		}
	})
}
