package service

import (
	"fmt"
	"math"
	"testing"

	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
)

// pinSample is n observations of v.
type pinSample struct {
	v float64
	n uint64
}

// quantilePinCases are fixed sample streams for both log-binned quantile
// structures: the registry histogram (frexp octaves, telemetry.HistValue)
// and the served-error sketch (γ = 1.02, Collect). Samples are dealt
// round-robin into three parts, and each want holds one line per merge
// order (the parts in index order, then reversed): the histogram's n,
// then the bit patterns of its min, mean, p50, p90, p99 and max, then
// Collect's p50, p99, p999, mean and max. The values pin both bin
// layouts and both rank rules, which the telemetry goldens,
// campaign-serving.jsonl and the benchmark digests depend on.
var quantilePinCases = []struct {
	name    string
	samples []pinSample
	want    [2]string
}{
	{"zero-and-negatives", []pinSample{
		{0, 1}, {-1, 1}, {-2.5e-3, 2}, {0, 3}, {2.5, 3}, {-7e-7, 1}, {3e-6, 2},
	}, [2]string{
		"n=13 bff0000000000000 3fdff9b48421b4e9 bff0000000000000 4004000000000000 4004000000000000 4004000000000000 3ec942f2972cfaed 4003e583e0d4f401 4003e583e0d4f401 3fe4ef76726e2e3f 4004000000000000",
		"n=13 bff0000000000000 3fdff9b48421b4e9 bff0000000000000 4004000000000000 4004000000000000 4004000000000000 3ec942f2972cfaed 4003e583e0d4f401 4003e583e0d4f401 3fe4ef76726e2e3f 4004000000000000",
	}},
	{"below-range", []pinSample{
		{1e-13, 4}, {4e-13, 1}, {1e-12, 3}, {5e-10, 2}, {1e-9, 1}, {2e-9, 2}, {3e-6, 1},
	}, [2]string{
		"n=14 3d3c25c268497682 3e8cd18937c5115e 3d71000000000000 3e21000000000000 3e21000000000000 3ec92a737110e454 3d3c25c268497682 3ec92a737110e454 3ec92a737110e454 3e8cd18937c5115e 3ec92a737110e454",
		"n=14 3d3c25c268497682 3e8cd18937c5115e 3d71000000000000 3e21000000000000 3e21000000000000 3ec92a737110e454 3d3c25c268497682 3ec92a737110e454 3ec92a737110e454 3e8cd18937c5115e 3ec92a737110e454",
	}},
	{"above-range", []pinSample{
		{20, 2}, {100, 1}, {1e12, 1}, {2e12, 2}, {1e300, 1}, {5, 3}, {9.99, 1}, {1e-6, 2},
	}, [2]string{
		"n=13 3eb0c6f7a0b5ed8d 7dfd67acf627f336 4035000000000000 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7dfd67acf627f336 7e37e43c8800759c",
		"n=13 3eb0c6f7a0b5ed8d 7dfd67acf627f336 4035000000000000 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7e37e43c8800759c 7dfd67acf627f336 7e37e43c8800759c",
	}},
	{"bin-edges", []pinSample{
		{0.5, 1}, {0.75, 2}, {1, 1}, {2, 3}, {0.5625, 1}, {math.Ldexp(1, -40), 1},
		{math.Ldexp(1, 40), 1}, {math.Nextafter(math.Ldexp(1, 40), 0), 1},
		{1e-9, 2}, {1e-9 * 1.02, 1}, {1e-9 * math.Pow(1.02, 100), 3},
		{10, 1}, {math.Nextafter(10, 0), 2},
	}, [2]string{
		"n=20 3d70000000000000 42399999999b9400 3fe9000000000000 4025000000000000 426f000000000000 4270000000000000 3fe7c7e4fc67b9a1 4270000000000000 4270000000000000 42399999999b9400 4270000000000000",
		"n=20 3d70000000000000 42399999999b9400 3fe9000000000000 4025000000000000 426f000000000000 4270000000000000 3fe7c7e4fc67b9a1 4270000000000000 4270000000000000 42399999999b9400 4270000000000000",
	}},
	{"single", []pinSample{{4.2e-6, 1}}, [2]string{
		"n=1 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307",
		"n=1 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307 3ed19db7358bd307",
	}},
	{"ramp", pinRamp(200), [2]string{
		"n=399 3eb0c6f7a0b5ed8d 3f1a5e1345e8fd74 3f1b000000000000 3f27000000000000 3f29000000000000 3f2a36e2eb1c432c 3f1a465acf48e328 3f29c219eb4a5f68 3f2a36e2eb1c432c 3f1a5e1345e8fd74 3f2a36e2eb1c432c",
		"n=399 3eb0c6f7a0b5ed8d 3f1a5e1345e8fd74 3f1b000000000000 3f27000000000000 3f29000000000000 3f2a36e2eb1c432c 3f1a465acf48e328 3f29c219eb4a5f68 3f2a36e2eb1c432c 3f1a5e1345e8fd73 3f2a36e2eb1c432c",
	}},
	{"heavy-tail", pinHeavyTail(300), [2]string{
		"n=467 3ddccc7b039c9db0 3f982e66f02a5024 3e15000000000000 3ed9000000000000 3fd5000000000000 40056470c0f3659e 3e14bc5f8b67a094 3fd58a4c51339ffb 40056470c0f3659e 3f982e66f02a501d 40056470c0f3659e",
		"n=467 3ddccc7b039c9db0 3f982e66f02a5024 3e15000000000000 3ed9000000000000 3fd5000000000000 40056470c0f3659e 3e14bc5f8b67a094 3fd58a4c51339ffb 40056470c0f3659e 3f982e66f02a501d 40056470c0f3659e",
	}},
}

// pinRamp is 1..n µs with weights cycling through 1, 2, 3.
func pinRamp(n int) []pinSample {
	out := make([]pinSample, n)
	for i := range out {
		out[i] = pinSample{float64(i+1) * 1e-6, uint64(1 + i%3)}
	}
	return out
}

// pinHeavyTail draws Pareto values across most of both binned ranges,
// with weights 0..3 (a zero weight records nothing).
func pinHeavyTail(n int) []pinSample {
	rng := sim.NewRNG(5)
	out := make([]pinSample, n)
	for i := range out {
		out[i] = pinSample{1e-10 * rng.Pareto(0.25, 1, 1e12), uint64(rng.Intn(4))}
	}
	return out
}

// quantilePinOutput deals samples round-robin into three registries and
// three generators' sketches, merges them in both orders and formats the
// results as described at quantilePinCases.
func quantilePinOutput(samples []pinSample) (out [2]string) {
	regs := [3]*telemetry.Registry{telemetry.New(), telemetry.New(), telemetry.New()}
	gens := [3]*Generator{{sk: NewSketch()}, {sk: NewSketch()}, {sk: NewSketch()}}
	for i, s := range samples {
		h := regs[i%3].Histogram("h")
		for range s.n {
			h.Observe(s.v)
		}
		gens[i%3].sk.AddN(s.v, s.n)
	}
	for k, o := range [2][3]int{{0, 1, 2}, {2, 1, 0}} {
		h := telemetry.Capture(0, regs[o[0]], regs[o[1]], regs[o[2]]).Hists["h"]
		st := Collect([]*Generator{gens[o[0]], gens[o[1]], gens[o[2]]}, 0, 0)
		out[k] = fmt.Sprintf("n=%d", h.N)
		for _, v := range []float64{h.Min, h.Mean, h.P50, h.P90, h.P99, h.Max,
			st.ErrP50S, st.ErrP99S, st.ErrP999S, st.ErrMeanS, st.ErrMaxS} {
			out[k] += fmt.Sprintf(" %016x", math.Float64bits(v))
		}
	}
	return out
}

func TestQuantilePins(t *testing.T) {
	for _, tc := range quantilePinCases {
		t.Run(tc.name, func(t *testing.T) {
			got := quantilePinOutput(tc.samples)
			for k := range got {
				if got[k] != tc.want[k] {
					t.Errorf("merge order %d moved:\ngot  %s\nwant %s", k, got[k], tc.want[k])
				}
			}
		})
	}
}
