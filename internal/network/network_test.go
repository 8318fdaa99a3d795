package network

import (
	"fmt"
	"math"
	"testing"

	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
)

// observedSim returns a simulator with a telemetry registry attached, so
// that a medium built on it counts its frames there.
func observedSim(seed uint64) (*sim.Simulator, *telemetry.Registry) {
	s, reg := sim.New(seed), telemetry.New()
	s.Observe(nil, reg)
	return s, reg
}

// frameCounts returns the frames a medium transmitted (sent, or lost to
// a partition) and the deliveries it corrupted, as counted in reg.
func frameCounts(reg *telemetry.Registry) (sent, corrupted uint64) {
	c := telemetry.Capture(0, reg).Counters
	return c["net.frames_sent"] + c["net.frames_lost"], c["net.crc_corrupt"]
}

// collector records delivered frames. A payload is valid only during
// FrameArrived (the Station contract), so it keeps a copy.
type collector struct {
	frames []Frame
}

func (c *collector) FrameArrived(f Frame) {
	f.Payload = append([]byte(nil), f.Payload...)
	c.frames = append(c.frames, f)
}

func TestBroadcastDelivery(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultLAN())
	var cs [4]collector
	var ids [4]int
	for i := range cs {
		ids[i] = m.Attach(&cs[i])
	}
	m.Send(Frame{Src: ids[0], Dst: Broadcast, Payload: make([]byte, 100)}, nil)
	s.Run()
	if len(cs[0].frames) != 0 {
		t.Error("sender received its own frame")
	}
	for i := 1; i < 4; i++ {
		if len(cs[i].frames) != 1 {
			t.Fatalf("station %d got %d frames", i, len(cs[i].frames))
		}
	}
}

func TestUnicastDelivery(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultLAN())
	var cs [3]collector
	for i := range cs {
		m.Attach(&cs[i])
	}
	m.Send(Frame{Src: 0, Dst: 2, Payload: make([]byte, 64)}, nil)
	s.Run()
	if len(cs[1].frames) != 0 || len(cs[2].frames) != 1 {
		t.Errorf("unicast delivery wrong: %d/%d", len(cs[1].frames), len(cs[2].frames))
	}
}

func TestFrameTiming(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultLAN()
	cfg.AccessJitterS = 0
	m := NewMedium(s, cfg)
	var c collector
	m.Attach(&collector{}) // station 0: sender
	m.Attach(&c)
	var acquired float64
	m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 125)}, func(at float64) { acquired = at })
	s.Run()
	// Idle medium: acquisition after the interframe gap only.
	if math.Abs(acquired-cfg.InterframeS) > 1e-12 {
		t.Errorf("acquired at %v, want %v", acquired, cfg.InterframeS)
	}
	f := c.frames[0]
	wantDur := (64 + 8*125) / 10e6
	if math.Abs(f.DeliveredAt-(acquired+wantDur+cfg.PropDelayS)) > 1e-12 {
		t.Errorf("delivered at %v", f.DeliveredAt)
	}
	if f.AcquiredAt != acquired {
		t.Error("AcquiredAt trace wrong")
	}
}

func TestMediumSerializesFrames(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultLAN()
	m := NewMedium(s, cfg)
	var c collector
	m.Attach(&collector{})
	m.Attach(&c)
	// Two frames queued back to back must not overlap on the wire.
	var starts []float64
	for i := 0; i < 2; i++ {
		m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 1000)}, func(at float64) { starts = append(starts, at) })
	}
	s.Run()
	if len(starts) != 2 {
		t.Fatalf("got %d acquisitions", len(starts))
	}
	dur := m.FrameDuration(1000)
	if starts[1] < starts[0]+dur {
		t.Errorf("second frame started at %v, before first ended at %v", starts[1], starts[0]+dur)
	}
}

func TestAccessUncertaintyUnderLoad(t *testing.T) {
	// The class-II property: medium access time varies under load.
	s := sim.New(2)
	cfg := DefaultLAN()
	m := NewMedium(s, cfg)
	var c collector
	m.Attach(&collector{})
	m.Attach(&c)
	m.StartBackgroundLoad(0.5, 400)
	var waits []float64
	send := func() {
		req := s.Now()
		m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 100)}, func(at float64) {
			waits = append(waits, at-req)
		})
	}
	for i := 0; i < 200; i++ {
		s.After(float64(i)*0.01, send)
	}
	s.RunUntil(3)
	if len(waits) < 150 {
		t.Fatalf("only %d sends completed", len(waits))
	}
	lo, hi := math.Inf(1), 0.0
	for _, w := range waits {
		lo = math.Min(lo, w)
		hi = math.Max(hi, w)
	}
	if hi-lo < 50e-6 {
		t.Errorf("access uncertainty %v too small under 50%% load", hi-lo)
	}
}

func TestCRCErrors(t *testing.T) {
	s, reg := observedSim(3)
	cfg := DefaultLAN()
	cfg.CRCErrorProb = 0.3
	m := NewMedium(s, cfg)
	var c collector
	m.Attach(&collector{})
	m.Attach(&c)
	for i := 0; i < 500; i++ {
		s.After(float64(i)*0.001, func() {
			m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 64)}, nil)
		})
	}
	s.Run()
	bad := 0
	for _, f := range c.frames {
		if f.Corrupt {
			bad++
		}
	}
	ratio := float64(bad) / float64(len(c.frames))
	if ratio < 0.2 || ratio > 0.4 {
		t.Errorf("corrupt ratio = %v, want ~0.3", ratio)
	}
	if _, corrupted := frameCounts(reg); corrupted == 0 {
		t.Error("stats did not count corruption")
	}
}

func TestBackgroundLoadUtilization(t *testing.T) {
	s, reg := observedSim(4)
	m := NewMedium(s, DefaultLAN())
	m.Attach(&collector{})
	m.StartBackgroundLoad(0.3, 400)
	s.RunUntil(10)
	sent, _ := frameCounts(reg)
	// Expected frames: 10 s * 0.3 / frameDuration(400B).
	want := 10 * 0.3 / m.FrameDuration(400)
	if float64(sent) < want*0.6 || float64(sent) > want*1.6 {
		t.Errorf("background frames = %d, want ≈%v", sent, want)
	}
}

func TestBackgroundLoadTooHighPanics(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultLAN())
	defer func() {
		if recover() == nil {
			t.Error("expected panic at 95% utilization")
		}
	}()
	m.StartBackgroundLoad(0.99, 400)
}

func TestDeterministicMedium(t *testing.T) {
	run := func() []float64 {
		s := sim.New(77)
		m := NewMedium(s, DefaultLAN())
		var c collector
		m.Attach(&collector{})
		m.Attach(&c)
		m.StartBackgroundLoad(0.4, 300)
		for i := 0; i < 20; i++ {
			s.After(float64(i)*0.05, func() {
				m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 80)}, nil)
			})
		}
		s.RunUntil(2)
		var out []float64
		for _, f := range c.frames {
			out = append(out, f.DeliveredAt)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different frame counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWANDelayDistribution(t *testing.T) {
	s := sim.New(5)
	w := NewWANPath(s, 1, "p")
	lo, hi, sum := math.Inf(1), 0.0, 0.0
	n := 5000
	for i := 0; i < n; i++ {
		d := w.SampleDelay(true)
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
		sum += d
	}
	if floor := wanBaseDelayS + wanHops*wanQueueMinS; lo < floor-1e-9 {
		t.Errorf("delay %v below floor %v", lo, floor)
	}
	if hi < 10*lo {
		t.Errorf("WAN delays not heavy-tailed: lo=%v hi=%v", lo, hi)
	}
	mean := sum / float64(n)
	if mean < 5e-3 || mean > 300e-3 {
		t.Errorf("mean delay %v implausible", mean)
	}
}

func TestWANAsymmetry(t *testing.T) {
	s := sim.New(6)
	w := NewWANPath(s, 3, "p")
	var fwd, rev float64
	n := 3000
	for i := 0; i < n; i++ {
		fwd += w.SampleDelay(true)
		rev += w.SampleDelay(false)
	}
	if fwd <= rev*1.3 {
		t.Errorf("asymmetry not visible: fwd=%v rev=%v", fwd/float64(n), rev/float64(n))
	}
}

func TestWANDeliver(t *testing.T) {
	s := sim.New(7)
	w := NewWANPath(s, 1, "p")
	got := 0
	tried := 400
	for i := 0; i < tried; i++ {
		w.Deliver(true, func(sentAt, arrivedAt float64) {
			if arrivedAt <= sentAt {
				t.Error("non-causal delivery")
			}
			got++
		})
	}
	s.Run()
	if got != tried {
		t.Errorf("delivered %d of %d packets", got, tried)
	}
}

func BenchmarkMediumThroughput(b *testing.B) {
	s := sim.New(1)
	m := NewMedium(s, DefaultLAN())
	var c collector
	m.Attach(&collector{})
	m.Attach(&c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 100)}, nil)
		if i%1000 == 999 {
			s.Run()
		}
	}
	s.Run()
}

// discard is a Station that drops frames without retaining them, so the
// broadcast benchmarks measure the medium, not the collector.
type discard struct{ n int }

func (d *discard) FrameArrived(f Frame) { d.n++ }

// BenchmarkMediumBroadcast measures the per-station delivery fast path:
// one sender broadcasting to n-1 receivers on an otherwise idle medium,
// the pattern every CSP round produces. Steady state must not allocate
// (pooled deliveries, prebuilt arbitration/serialization callbacks).
func BenchmarkMediumBroadcast(b *testing.B) {
	for _, n := range []int{4, 16, 32} {
		b.Run(fmt.Sprintf("stations-%02d", n), func(b *testing.B) {
			s := sim.New(1)
			m := NewMedium(s, DefaultLAN())
			sinks := make([]discard, n)
			for i := range sinks {
				m.Attach(&sinks[i])
			}
			payload := make([]byte, 100)
			// Pace sends a hair slower than the medium's full cycle
			// (interframe gap + serialization) so the bus stays idle at
			// each request — the fast path under measurement.
			cycle := DefaultLAN().InterframeS + m.FrameDuration(len(payload)) + 1e-6
			var send func()
			sent := 0
			send = func() {
				sent++
				if sent < b.N {
					m.Send(Frame{Src: 0, Dst: Broadcast, Payload: payload}, nil)
					s.After(cycle, send)
				}
			}
			// Warm the delivery pool and slice capacities.
			m.Send(Frame{Src: 0, Dst: Broadcast, Payload: payload}, nil)
			s.Run()
			b.ReportAllocs()
			b.ResetTimer()
			if b.N > 0 {
				s.After(0, send)
			}
			s.Run()
		})
	}
}

// TestMediumBroadcastZeroAlloc pins the allocation-free property of the
// idle-medium broadcast path.
func TestMediumBroadcastZeroAlloc(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultLAN())
	sinks := make([]discard, 8)
	for i := range sinks {
		m.Attach(&sinks[i])
	}
	payload := make([]byte, 100)
	for i := 0; i < 16; i++ { // warm pools and queue capacity
		m.Send(Frame{Src: 0, Dst: Broadcast, Payload: payload}, nil)
		s.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		m.Send(Frame{Src: 0, Dst: Broadcast, Payload: payload}, nil)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("idle-medium broadcast: %v allocs/op, want 0", allocs)
	}
	for i := 1; i < len(sinks); i++ { // station 0 is the sender
		if sinks[i].n == 0 {
			t.Fatalf("station %d received nothing", i)
		}
	}
}

// TestBackgroundLoadPayloadReuse verifies background frames slice the
// shared scratch buffer instead of allocating per-frame payloads.
func TestBackgroundLoadPayloadReuse(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultLAN())
	m.StartBackgroundLoad(0.4, 400)
	s.RunUntil(0.2) // let the generator reach steady state
	allocs := testing.AllocsPerRun(20, func() {
		s.RunUntil(s.Now() + 0.05)
	})
	if allocs != 0 {
		t.Errorf("steady-state background load: %v allocs/op, want 0", allocs)
	}
}
