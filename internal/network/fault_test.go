package network

import (
	"testing"

	"ntisim/internal/sim"
	"ntisim/internal/trace"
)

// TestPartitionDropsDeliveries: while the medium is partitioned (cable
// fault / switch outage), frames are still transmitted — the sender's
// side of the bus behaves normally, onAcquired fires, the sent counter
// advances — but no station receives anything.
func TestPartitionDropsDeliveries(t *testing.T) {
	s, reg := observedSim(1)
	m := NewMedium(s, DefaultLAN())
	var cs [3]collector
	for i := range cs {
		m.Attach(&cs[i])
	}
	m.SetPartitioned(true)

	acquired := 0
	for i := 0; i < 4; i++ {
		m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 64)},
			func(at float64) { acquired++ })
	}
	s.Run()

	if acquired != 4 {
		t.Errorf("onAcquired fired %d times, want 4 (tx side must behave normally)", acquired)
	}
	if sent, _ := frameCounts(reg); sent != 4 {
		t.Errorf("sent = %d, want 4 (partitioned frames still count as transmitted)", sent)
	}
	for i, c := range cs {
		if len(c.frames) != 0 {
			t.Errorf("station %d received %d frames across a partition", i, len(c.frames))
		}
	}
}

// TestPartitionRecovery: traffic queued after the partition clears is
// delivered again; the outage is not sticky.
func TestPartitionRecovery(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, DefaultLAN())
	var rx collector
	m.Attach(&collector{}) // station 0: sender
	m.Attach(&rx)

	m.SetPartitioned(true)
	m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 64)}, nil)
	s.Run()
	if len(rx.frames) != 0 {
		t.Fatalf("frame delivered during outage")
	}

	m.SetPartitioned(false)
	m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 64)}, nil)
	s.Run()
	if len(rx.frames) != 1 {
		t.Fatalf("got %d frames after recovery, want 1", len(rx.frames))
	}
}

// TestPartitionTiming: the bus stays occupied for the full frame
// duration even when the frame reaches nobody — a partitioned medium
// still serializes, so a queued second frame waits its turn.
func TestPartitionTiming(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultLAN()
	cfg.AccessJitterS = 0
	m := NewMedium(s, cfg)
	m.Attach(&collector{})
	m.Attach(&collector{})
	m.SetPartitioned(true)

	var t0, t1 float64
	m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 125)}, func(at float64) { t0 = at })
	m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 125)}, func(at float64) { t1 = at })
	s.Run()

	dur := m.FrameDuration(125)
	if min := t0 + dur + cfg.InterframeS; t1 < min-1e-12 {
		t.Errorf("second frame acquired at %v, want >= %v (lost frames must still occupy the bus)", t1, min)
	}
}

// TestPartitionTrace: a partitioned transmission shows up in the trace
// as frame-lost (not frame-tx), with the same payload attribution, and
// produces no frame-rx records.
func TestPartitionTrace(t *testing.T) {
	s := sim.New(1)
	tr := trace.New(trace.Options{})
	s.Observe(tr, nil)
	m := NewMedium(s, DefaultLAN())
	m.Attach(&collector{})
	m.Attach(&collector{})

	fid := m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 64)}, nil)
	s.Run() // deliver before the outage: partitioning is a transmit-time fact
	m.SetPartitioned(true)
	lostID := m.Send(Frame{Src: 0, Dst: Broadcast, Payload: make([]byte, 64)}, nil)
	s.Run()

	if fid != 1 || lostID != 2 {
		t.Fatalf("frame ids = %d,%d, want monotone 1,2", fid, lostID)
	}
	counts := map[trace.Kind]int{}
	for _, r := range tr.Records() {
		counts[r.Kind]++
		switch r.Kind {
		case trace.KindFrameTx:
			if r.A != fid {
				t.Errorf("frame-tx for frame %d, want %d", r.A, fid)
			}
		case trace.KindFrameLost:
			if r.A != lostID || r.B != 64 || r.V <= 0 {
				t.Errorf("frame-lost record mangled: %+v", r)
			}
		case trace.KindFrameRx:
			if r.A != fid {
				t.Errorf("frame-rx for lost frame %d", r.A)
			}
		}
	}
	if counts[trace.KindFrameTx] != 1 || counts[trace.KindFrameLost] != 1 {
		t.Errorf("tx/lost counts = %d/%d, want 1/1", counts[trace.KindFrameTx], counts[trace.KindFrameLost])
	}
	if counts[trace.KindFrameRx] != 1 {
		t.Errorf("frame-rx count = %d, want 1 (only the pre-partition frame)", counts[trace.KindFrameRx])
	}
}
