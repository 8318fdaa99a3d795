package main

import (
	"flag"
	"testing"
	"time"

	"ntisim/internal/interval"
	"ntisim/internal/network"
	"ntisim/internal/service"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// lan32QueueDepth is lan-32's sim.queue_depth_hi (seed 1998), the depth
// the event-queue probe runs at.
const lan32QueueDepth = 693

// probe is one public operation of a layer timed with testing.Benchmark;
// its ns/op and allocs/op become <name>_ns and <name>_allocs.
type probe struct {
	name string
	fn   func(b *testing.B)
}

var probes = []probe{
	{"sim.probe_at_fire", probeAtFire},
	{"network.probe_send", probeSend},
	{"interval.probe_marzullo", probeMarzullo},
	{"service.probe_addn", probeAddN},
}

// runProbes times every probe for about d each and returns its metrics.
func runProbes(d time.Duration) map[string]float64 {
	testing.Init()
	if err := flag.Set("test.benchtime", d.String()); err != nil {
		panic(err) // the flag is registered by testing.Init just above
	}
	out := map[string]float64{}
	for _, p := range probes {
		r := testing.Benchmark(p.fn)
		out[p.name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		out[p.name+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out
}

// probeAtFire schedules one event and fires it, on a queue holding
// lan-32's peak depth of far-future events.
func probeAtFire(b *testing.B) {
	s := sim.New(1)
	r := s.RNG("probe")
	idle := func() {}
	for i := 0; i < lan32QueueDepth; i++ {
		s.At(1e9+r.Float64(), idle)
	}
	n := 0
	var fire func()
	fire = func() {
		n++
		if n < b.N {
			s.At(s.Now()+r.Float64()*1e-3, fire)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.At(0, fire)
	s.RunUntil(1e8)
}

type sink struct{ frames int }

func (s *sink) FrameArrived(network.Frame) { s.frames++ }

// probeSend broadcasts a 64-byte frame to 32 attached stations on an
// idle medium and runs the simulator until every copy is delivered.
func probeSend(b *testing.B) {
	s := sim.New(1)
	m := network.NewMedium(s, network.DefaultLAN())
	sinks := make([]sink, 32)
	for i := range sinks {
		m.Attach(&sinks[i])
	}
	payload := make([]byte, 64)
	for i := 0; i < 16; i++ { // warm the delivery pool
		m.Send(network.Frame{Src: 0, Dst: network.Broadcast, Payload: payload}, nil)
		s.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(network.Frame{Src: 0, Dst: network.Broadcast, Payload: payload}, nil)
		s.Run()
	}
}

// probeMarzullo fuses 32 overlapping accuracy intervals tolerating f=5.
func probeMarzullo(b *testing.B) {
	r := sim.NewRNG(1)
	ivs := make([]interval.Interval, 32)
	for i := range ivs {
		ref := timefmt.Stamp(timefmt.DurationFromSeconds(100 + r.Uniform(-20e-6, 20e-6)))
		ivs[i] = interval.New(ref, timefmt.DurationFromSeconds(r.Uniform(30e-6, 60e-6)), timefmt.DurationFromSeconds(r.Uniform(30e-6, 60e-6)))
	}
	var fz interval.Fuser
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := fz.Marzullo(ivs, 5); !ok {
			b.Fatal("marzullo found no fused interval")
		}
	}
}

// probeAddN records one tick batch of served-query errors.
func probeAddN(b *testing.B) {
	sk := service.NewSketch()
	r := sim.NewRNG(1)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = r.Uniform(1e-7, 1e-4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.AddN(vals[i&1023], 40)
	}
}
