package comco

import (
	"testing"

	"ntisim/internal/csp"
	"ntisim/internal/fixpt"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

func rig(seed uint64) (*sim.Simulator, *network.Medium, *nti.NTI, *COMCO, *nti.NTI, *COMCO) {
	s := sim.New(seed)
	med := network.NewMedium(s, network.DefaultLAN())
	mk := func(label string) (*nti.NTI, *COMCO) {
		o := oscillator.New(s, oscillator.Ideal(10e6), label)
		u := utcsu.New(s, o)
		n := nti.New(u)
		return n, NewChannel(s, n, med, label, 0, 0)
	}
	na, ca := mk("a")
	nb, cb := mk("b")
	return s, med, na, ca, nb, cb
}

func TestTransmitInsertsHardwareStamp(t *testing.T) {
	s, _, na, ca, nb, cb := rig(1)
	_ = nb
	var storedAt uint32
	stored := false
	cb.OnRxStored(func(_ uint64, base uint32, length int, corrupt bool) {
		storedAt = base
		stored = true
	})
	s.RunUntil(0.5)
	// Software encodes a CSP with zero stamps into tx header 0.
	p := csp.Packet{Kind: csp.KindCSP, Node: 1, Round: 3}
	na.CPUWrite(nti.TxHeaderAddr(0), p.Encode())
	ca.Transmit(0, nil, network.Broadcast)
	s.RunUntil(1)
	if !stored {
		t.Fatal("frame never stored at receiver")
	}
	var hdr [nti.HeaderSize]byte
	nb.CPURead(storedAt, hdr[:])
	got, err := csp.Decode(hdr[:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	st, ok := got.TxStamp()
	if !ok {
		t.Fatal("tx stamp checksum failed on the wire image")
	}
	if d := st.Seconds() - 0.5; d < 0 || d > 100e-6 {
		t.Errorf("tx stamp offset from send %v", d)
	}
	if got.Round != 3 || got.Node != 1 {
		t.Errorf("payload fields corrupted: %+v", got)
	}
	if tx, _, _ := na.Stats(); tx != 1 {
		t.Errorf("tx triggers = %d", tx)
	}
	if _, rx, _ := nb.Stats(); rx != 1 {
		t.Errorf("rx triggers = %d", rx)
	}
}

func TestTransmitRawBypassesTriggers(t *testing.T) {
	s, _, na, ca, nb, cb := rig(2)
	stored := false
	cb.OnRxStored(func(_ uint64, base uint32, length int, corrupt bool) { stored = true })
	s.RunUntil(0.5)
	p := csp.Packet{Kind: csp.KindCSP, Node: 1}
	p.SetTxStamp(timefmt.StampFromTime(fixFromSeconds(0.123)))
	ca.TransmitRaw(p.Encode(), network.Broadcast)
	s.RunUntil(1)
	if !stored {
		t.Fatal("raw frame not delivered")
	}
	if tx, _, _ := na.Stats(); tx != 0 {
		t.Error("raw transmit raised a TRANSMIT trigger")
	}
	// The receiver's RECEIVE trigger still fires — the NTI decodes by
	// address, not by how the sender built the frame.
	if _, rx, _ := nb.Stats(); rx != 1 {
		t.Error("receive trigger missing for raw frame")
	}
}

func TestReceiveSlotsRotate(t *testing.T) {
	s, _, na, ca, nb, cb := rig(3)
	_ = nb
	var bases []uint32
	cb.OnRxStored(func(_ uint64, base uint32, length int, corrupt bool) { bases = append(bases, base) })
	s.RunUntil(0.1)
	for i := 0; i < 3; i++ {
		p := csp.Packet{Kind: csp.KindCSP, Seq: uint16(i)}
		na.CPUWrite(nti.TxHeaderAddr(i), p.Encode())
		ca.Transmit(i, nil, network.Broadcast)
	}
	s.RunUntil(1)
	if len(bases) != 3 {
		t.Fatalf("stored %d frames", len(bases))
	}
	if bases[0] == bases[1] || bases[1] == bases[2] {
		t.Errorf("rx slots did not rotate: %v", bases)
	}
	if bases[1] != bases[0]+nti.HeaderSize {
		t.Errorf("slots not sequential: %v", bases)
	}
}

func TestShortFramesIgnored(t *testing.T) {
	s, med, _, _, _, cb := rig(4)
	stored := false
	cb.OnRxStored(func(uint64, uint32, int, bool) { stored = true })
	med.Send(network.Frame{Src: 0, Dst: network.Broadcast, Payload: make([]byte, 32)}, nil)
	s.RunUntil(1)
	if stored {
		t.Error("runt frame stored")
	}
}

func TestCorruptFlagPropagates(t *testing.T) {
	s := sim.New(5)
	mc := network.DefaultLAN()
	mc.CRCErrorProb = 1
	med := network.NewMedium(s, mc)
	o1 := oscillator.New(s, oscillator.Ideal(10e6), "a")
	u1 := utcsu.New(s, o1)
	n1 := nti.New(u1)
	c1 := NewChannel(s, n1, med, "a", 0, 0)
	o2 := oscillator.New(s, oscillator.Ideal(10e6), "b")
	u2 := utcsu.New(s, o2)
	n2 := nti.New(u2)
	c2 := NewChannel(s, n2, med, "b", 0, 1)
	_ = c1
	sawCorrupt := false
	c2.OnRxStored(func(_ uint64, _ uint32, _ int, corrupt bool) { sawCorrupt = corrupt })
	p := csp.Packet{Kind: csp.KindCSP}
	n1.CPUWrite(nti.TxHeaderAddr(0), p.Encode())
	c1.Transmit(0, nil, network.Broadcast)
	s.RunUntil(1)
	if !sawCorrupt {
		t.Error("corrupt flag lost")
	}
}

func TestExtraPayloadCarried(t *testing.T) {
	s, _, na, ca, nb, cb := rig(6)
	_ = nb
	var gotLen int
	cb.OnRxStored(func(_ uint64, _ uint32, length int, _ bool) { gotLen = length })
	p := csp.Packet{Kind: csp.KindNet}
	na.CPUWrite(nti.TxHeaderAddr(0), p.Encode())
	ca.Transmit(0, make([]byte, 100), network.Broadcast)
	s.RunUntil(1)
	if gotLen != nti.HeaderSize+100 {
		t.Errorf("frame length %d", gotLen)
	}
}

func TestStats(t *testing.T) {
	s, _, na, ca, _, cb := rig(7)
	cb.OnRxStored(func(uint64, uint32, int, bool) {})
	p := csp.Packet{Kind: csp.KindCSP}
	na.CPUWrite(nti.TxHeaderAddr(0), p.Encode())
	ca.Transmit(0, nil, network.Broadcast)
	s.RunUntil(1)
	if tx, _ := ca.Stats(); tx != 1 {
		t.Errorf("tx stats = %d", tx)
	}
	if _, rx := cb.Stats(); rx != 1 {
		t.Errorf("rx stats = %d", rx)
	}
}

func fixFromSeconds(v float64) fixpt.Time { return fixpt.FromSeconds(v) }
