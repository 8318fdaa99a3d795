package kernel

import (
	"math"
	"testing"

	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/utcsu"
)

// pair builds two nodes on a quiet LAN with ideal oscillators, so clock
// readings equal true time and stamps can be checked against the frame
// trace directly.
func pair(t testing.TB, seed uint64, cfg Config) (*sim.Simulator, *network.Medium, *Node, *Node) {
	t.Helper()
	s := sim.New(seed)
	med := network.NewMedium(s, network.DefaultLAN())
	mk := func(id uint16) *Node {
		o := oscillator.New(s, oscillator.Ideal(10e6), string(rune('a'+id)))
		u := utcsu.New(s, o)
		return NewNode(s, id, u, med, cfg)
	}
	a := mk(0)
	b := mk(1)
	return s, med, a, b
}

func ntiCfg() Config {
	return Config{Mode: ModeNTI, UseRxBaseLatch: true}
}

func TestCSPDeliveryModeNTI(t *testing.T) {
	s, _, a, b := pair(t, 1, ntiCfg())
	var got []Arrival
	b.OnCSP(func(ar Arrival) { got = append(got, ar) })
	s.After(0.5, func() { a.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: 7}, network.Broadcast) })
	s.RunUntil(1)
	if len(got) != 1 {
		t.Fatalf("CI delivered %d packets", len(got))
	}
	ar := got[0]
	if ar.Pkt.Kind != csp.KindCSP || ar.Pkt.Round != 7 || ar.Pkt.Node != 0 {
		t.Errorf("packet fields wrong: %+v", ar.Pkt)
	}
	if !ar.StampOK {
		t.Fatal("hardware rx stamp not attributed")
	}
	tx, ok := ar.Pkt.TxStamp()
	if !ok {
		t.Fatal("tx stamp checksum failed")
	}
	// With ideal clocks both stamps track true time; the difference is
	// the true hardware-timestamping delay: trigger offsets within the
	// frame plus DMA/arbitration terms. Must be tens of µs at 10 Mb/s,
	// and positive.
	d := ar.RxStamp.Sub(tx).Seconds()
	if d <= 0 || d > 200e-6 {
		t.Errorf("rx-tx stamp gap = %v", d)
	}
}

func TestTransmitStampInsertedInFlight(t *testing.T) {
	// The CSP was encoded with zero stamp words; the receiver must see
	// hardware-inserted, checksum-valid words — proof the insertion
	// happened on the wire path, not in software.
	s, _, a, b := pair(t, 2, ntiCfg())
	var got []Arrival
	b.OnCSP(func(ar Arrival) { got = append(got, ar) })
	s.After(0.25, func() { a.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast) })
	s.RunUntil(1)
	if len(got) != 1 {
		t.Fatal("no delivery")
	}
	tx, ok := got[0].Pkt.TxStamp()
	if !ok || tx == 0 {
		t.Fatalf("inserted stamp invalid: %v ok=%v", tx, ok)
	}
	if math.Abs(tx.Seconds()-0.25) > 0.01 {
		t.Errorf("tx stamp %v far from send time", tx)
	}
}

func TestEpsilonHardwareSmall(t *testing.T) {
	// ε is the variability of (rx stamp - tx stamp) across many CSPs
	// (paper §3.1/[LL84]). With the NTI it must be well below 1 µs even
	// though ISR latencies are in the 100 µs range.
	s, _, a, b := pair(t, 3, ntiCfg())
	var gaps []float64
	b.OnCSP(func(ar Arrival) {
		if tx, ok := ar.Pkt.TxStamp(); ok && ar.StampOK {
			gaps = append(gaps, ar.RxStamp.Sub(tx).Seconds())
		}
	})
	for i := 0; i < 200; i++ {
		i := i
		s.After(0.01+float64(i)*0.002, func() {
			a.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: uint32(i)}, network.Broadcast)
		})
	}
	s.RunUntil(2)
	if len(gaps) < 150 {
		t.Fatalf("only %d stamped deliveries", len(gaps))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range gaps {
		lo = math.Min(lo, g)
		hi = math.Max(hi, g)
	}
	eps := hi - lo
	if eps >= 1e-6 {
		t.Errorf("hardware ε = %v, want < 1 µs", eps)
	}
	if eps <= 0 {
		t.Errorf("ε degenerate: %v", eps)
	}
}

func TestModeTaskStampsAtTaskLevel(t *testing.T) {
	cfg := Config{Mode: ModeTask}
	s, _, a, b := pair(t, 4, cfg)
	var gaps []float64
	b.OnCSP(func(ar Arrival) {
		if tx, ok := ar.Pkt.TxStamp(); ok {
			gaps = append(gaps, ar.RxStamp.Sub(tx).Seconds())
		}
	})
	for i := 0; i < 100; i++ {
		s.After(0.01+float64(i)*0.005, func() {
			a.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast)
		})
	}
	s.RunUntil(2)
	if len(gaps) < 80 {
		t.Fatalf("only %d deliveries", len(gaps))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range gaps {
		lo = math.Min(lo, g)
		hi = math.Max(hi, g)
	}
	// Software-only ε is dominated by task dispatch jitter: >> hardware.
	if hi-lo < 20e-6 {
		t.Errorf("task-level ε = %v, implausibly small", hi-lo)
	}
}

func TestKIAndNIRouting(t *testing.T) {
	// KI and NI frames share the medium and the receive path, but only
	// CSP traffic may reach the Clock Interface.
	s, _, a, b := pair(t, 5, ntiCfg())
	var got []csp.Kind
	b.OnCSP(func(ar Arrival) { got = append(got, ar.Pkt.Kind) })
	s.After(0.1, func() {
		for _, k := range []csp.Kind{csp.KindKernel, csp.KindNet} {
			p := csp.Packet{Kind: k, Node: a.ID, Dest: uint16(b.Station())}
			hdr := p.Encode()
			a.COMCO.TransmitRaw(hdr[:], b.Station())
			a.COMCO.TransmitRaw(append(hdr[:], make([]byte, 300)...), b.Station())
		}
	})
	s.After(0.5, func() { a.SendCSP(csp.Packet{Kind: csp.KindCSP}, b.Station()) })
	s.RunUntil(1)
	if len(got) != 1 || got[0] != csp.KindCSP {
		t.Errorf("CI deliveries: %v, want only the CSP", got)
	}
	if n := b.CIDelivered(); n != 1 {
		t.Errorf("CIDelivered = %d, want 1", n)
	}
	if _, rx := b.COMCO.Stats(); rx != 5 {
		t.Errorf("frames stored = %d, want 5", rx)
	}
}

func TestRTTExchange(t *testing.T) {
	s, _, a, b := pair(t, 6, ntiCfg())
	b.EnableRTTResponder()
	var resp []Arrival
	a.OnCSP(func(ar Arrival) {
		if ar.Pkt.Kind == csp.KindRTTResp {
			resp = append(resp, ar)
		}
	})
	s.After(0.1, func() { a.SendCSP(csp.Packet{Kind: csp.KindRTTReq, Round: 9}, b.Station()) })
	s.RunUntil(2)
	if len(resp) != 1 {
		t.Fatalf("%d RTT responses", len(resp))
	}
	ar := resp[0]
	if ar.Pkt.Round != 9 {
		t.Error("round not echoed")
	}
	if ar.Pkt.EchoReqTx == 0 || ar.Pkt.EchoReqRx == 0 {
		t.Error("echo stamps missing")
	}
	// With ideal clocks: reqTx < reqRx (B's receive after A's send), and
	// the response's own stamps bracket sensibly.
	if ar.Pkt.EchoReqRx <= ar.Pkt.EchoReqTx {
		t.Error("echo stamps out of order")
	}
	respTx, ok := ar.Pkt.TxStamp()
	if !ok || respTx < ar.Pkt.EchoReqRx {
		t.Error("response tx stamp precedes request rx stamp")
	}
	if !ar.StampOK || ar.RxStamp < respTx {
		t.Error("final rx stamp precedes response tx stamp")
	}
}

func TestCorruptFramesDiscardedButStampConsumed(t *testing.T) {
	s := sim.New(7)
	mc := network.DefaultLAN()
	mc.CRCErrorProb = 1.0 // every delivery corrupt
	med := network.NewMedium(s, mc)
	mko := func(id uint16) *Node {
		o := oscillator.New(s, oscillator.Ideal(10e6), string(rune('a'+id)))
		u := utcsu.New(s, o)
		return NewNode(s, id, u, med, ntiCfg())
	}
	a, b := mko(0), mko(1)
	b.OnCSP(func(Arrival) { t.Error("corrupt CSP delivered to CI") })
	s.After(0.1, func() { a.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast) })
	s.RunUntil(1)
	// The RECEIVE trigger fired although the packet was discarded
	// (footnote 4's scenario).
	if _, rx := b.NTI.ChannelStats(0); rx != 1 {
		t.Errorf("rx triggers = %d", rx)
	}
	if b.CIDelivered() != 0 {
		t.Error("CI count nonzero")
	}
}

func TestBackToBackLatchVsGuess(t *testing.T) {
	// E10's mechanism test: with bursts of CSPs from two senders, the
	// latch keeps stamp attribution exact for every packet whose sample
	// survived; timing-based guessing misattributes some stamps.
	run := func(useLatch bool) (valid, total int) {
		s := sim.New(99)
		med := network.NewMedium(s, network.DefaultLAN())
		cfg := Config{Mode: ModeNTI, UseRxBaseLatch: useLatch}
		mk := func(id uint16) *Node {
			o := oscillator.New(s, oscillator.Ideal(10e6), string(rune('a'+id)))
			u := utcsu.New(s, o)
			return NewNode(s, id, u, med, cfg)
		}
		recv := mk(0)
		s1, s2 := mk(1), mk(2)
		recv.OnCSP(func(ar Arrival) {
			total++
			if ar.StampOK {
				valid++
			}
		})
		for i := 0; i < 50; i++ {
			i := i
			s.After(0.01+float64(i)*0.01, func() {
				// Two CSPs back to back from different senders.
				s1.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast)
				s2.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast)
			})
		}
		s.RunUntil(2)
		return valid, total
	}
	vLatch, tLatch := run(true)
	if tLatch < 90 {
		t.Fatalf("latch run delivered only %d", tLatch)
	}
	// With the latch, every packet whose trigger was the most recent at
	// ISR time gets a correct stamp; under this burst pattern at least
	// half survive.
	if float64(vLatch)/float64(tLatch) < 0.5 {
		t.Errorf("latch attribution rate %d/%d too low", vLatch, tLatch)
	}
}

func TestOverrunDetection(t *testing.T) {
	s, _, a, b := pair(t, 8, ntiCfg())
	b.OnCSP(func(Arrival) {})
	// A burst that outpaces the stamp-move ISR occasionally.
	for i := 0; i < 30; i++ {
		s.After(0.1+float64(i)*0.0001, func() {
			a.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast)
		})
	}
	s.RunUntil(2)
	// Not asserting a specific count — just that the counter plumbing
	// works and the run completes; under this burst some overruns are
	// expected with 150 µs interrupt-disable sections.
	t.Logf("overruns: %d, delivered: %d", b.Overruns(), b.CIDelivered())
}

func TestDeterministicKernel(t *testing.T) {
	run := func() (uint64, uint64) {
		s, _, a, b := pair(t, 42, ntiCfg())
		b.OnCSP(func(Arrival) {})
		for i := 0; i < 20; i++ {
			s.After(0.01+float64(i)*0.01, func() {
				a.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast)
			})
		}
		s.RunUntil(2)
		return b.CIDelivered(), s.EventCount()
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Errorf("non-deterministic: %d/%d vs %d/%d", d1, e1, d2, e2)
	}
}

func TestGatewayAttachSegment(t *testing.T) {
	s := sim.New(20)
	medA := network.NewMedium(s, network.DefaultLAN())
	medB := network.NewMedium(s, network.DefaultLAN())
	mk := func(id uint16, med *network.Medium) *Node {
		o := oscillator.New(s, oscillator.Ideal(10e6), string(rune('g'+id)))
		u := utcsu.New(s, o)
		return NewNode(s, id, u, med, ntiCfg())
	}
	a := mk(0, medA)  // segment A node
	b := mk(1, medB)  // segment B node
	gw := mk(2, medA) // gateway on A...
	if ch := gw.AttachSegment(medB); ch != 1 {
		t.Fatalf("second segment got channel %d", ch)
	}
	if gw.Channels() != 2 {
		t.Fatalf("gateway channels = %d", gw.Channels())
	}
	var fromA, fromB []Arrival
	gw.OnCSP(func(ar Arrival) {
		switch ar.Pkt.Node {
		case 0:
			fromA = append(fromA, ar)
		case 1:
			fromB = append(fromB, ar)
		}
	})
	var atB []Arrival
	b.OnCSP(func(ar Arrival) { atB = append(atB, ar) })
	s.After(0.1, func() {
		a.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: 1}, network.Broadcast)
		b.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: 2}, network.Broadcast)
		gw.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: 3}, network.Broadcast)
	})
	s.RunUntil(1)
	if len(fromA) != 1 || len(fromB) != 1 {
		t.Fatalf("gateway received %d from A, %d from B", len(fromA), len(fromB))
	}
	if !fromA[0].StampOK || !fromB[0].StampOK {
		t.Error("gateway hardware stamps missing on a channel")
	}
	// The gateway's broadcast reached segment B with fresh channel-1
	// hardware stamps.
	found := false
	for _, ar := range atB {
		if ar.Pkt.Node == 2 && ar.Pkt.Round == 3 {
			found = true
			if tx, ok := ar.Pkt.TxStamp(); !ok || tx == 0 {
				t.Error("gateway tx stamp invalid on segment B")
			}
			if !ar.StampOK {
				t.Error("segment B rx stamp missing for gateway CSP")
			}
		}
	}
	if !found {
		t.Error("gateway broadcast never reached segment B")
	}
	// Channel trigger accounting: one tx+rx pair on each channel.
	tx0, rx0 := gw.NTI.ChannelStats(0)
	tx1, rx1 := gw.NTI.ChannelStats(1)
	if tx0 != 1 || tx1 != 1 {
		t.Errorf("gateway tx triggers %d/%d", tx0, tx1)
	}
	if rx0 != 1 || rx1 != 1 {
		t.Errorf("gateway rx triggers %d/%d", rx0, rx1)
	}
	// A node on segment A must never see segment B traffic.
	if len(atB) != 1 {
		t.Errorf("segment B saw %d CSPs, want only the gateway's", len(atB))
	}
}

func TestAttachSegmentLimit(t *testing.T) {
	s, med, a, _ := pair(t, 21, ntiCfg())
	a.AttachSegment(med) // 2nd
	a.AttachSegment(med) // 3rd
	defer func() {
		if recover() == nil {
			t.Error("fourth segment should exhaust the SSU pairs")
		}
	}()
	a.AttachSegment(med)
	_ = s
}

func TestModeISRStampsBetweenTaskAndHardware(t *testing.T) {
	// The kernel-level class: receive stamps taken in the frame ISR land
	// between the task-level and hardware classes in spread.
	spread := func(mode TimestampMode) float64 {
		cfg := Config{Mode: mode, UseRxBaseLatch: true}
		s, _, a, b := pair(t, 41, cfg)
		var gaps []float64
		b.OnCSP(func(ar Arrival) {
			if tx, ok := ar.Pkt.TxStamp(); ok && ar.StampOK {
				gaps = append(gaps, ar.RxStamp.Sub(tx).Seconds())
			}
		})
		for i := 0; i < 100; i++ {
			s.After(0.01+float64(i)*0.004, func() {
				a.SendCSP(csp.Packet{Kind: csp.KindCSP}, network.Broadcast)
			})
		}
		s.RunUntil(2)
		if len(gaps) < 80 {
			t.Fatalf("mode %v: only %d deliveries", mode, len(gaps))
		}
		lo, hi := gaps[0], gaps[0]
		for _, g := range gaps[1:] {
			lo = math.Min(lo, g)
			hi = math.Max(hi, g)
		}
		return hi - lo
	}
	isr := spread(ModeISR)
	task := spread(ModeTask)
	nti := spread(ModeNTI)
	if !(nti < isr && isr < task) {
		t.Errorf("spread ordering violated: nti=%v isr=%v task=%v", nti, isr, task)
	}
}
