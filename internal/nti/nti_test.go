package nti

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ntisim/internal/csp"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

func rig(seed uint64) (*sim.Simulator, *utcsu.UTCSU, *NTI) {
	s := sim.New(seed)
	o := oscillator.New(s, oscillator.Ideal(10e6), "nti")
	u := utcsu.New(s, o)
	return s, u, New(u)
}

// cpuWrite32 stores a big-endian word through plain CPU access.
func cpuWrite32(n *NTI, addr, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	n.CPUWrite(addr, b[:])
}

// cpuRead32 loads a big-endian word through plain CPU access.
func cpuRead32(n *NTI, addr uint32) uint32 {
	var b [4]byte
	n.CPURead(addr, b[:])
	return binary.BigEndian.Uint32(b[:])
}

func TestMemoryMapLayout(t *testing.T) {
	// Fig. 6: four sections covering the full 256 KB exactly.
	if TxHeadersSize+RxHeadersSize+DataSize+SystemSize != MemSize {
		t.Error("sections do not tile the 256 KB region")
	}
	if MemSize != 256*1024 {
		t.Errorf("memory size %d, paper says 256 KB (2x 64Kx16 SRAM)", MemSize)
	}
	if NumTxHeaders != 64 || NumRxHeaders != 128 {
		t.Errorf("header counts %d/%d", NumTxHeaders, NumRxHeaders)
	}
}

func TestCPUAccessPlain(t *testing.T) {
	_, _, n := rig(1)
	data := []byte{1, 2, 3, 4}
	n.CPUWrite(DataBase, data)
	out := make([]byte, 4)
	n.CPURead(DataBase, out)
	if !bytes.Equal(data, out) {
		t.Error("CPU read/write mismatch")
	}
	cpuWrite32(n, SystemBase, 0xDEADBEEF)
	if cpuRead32(n, SystemBase) != 0xDEADBEEF {
		t.Error("CPU word access mismatch")
	}
	// CPU access to trigger offsets has no special effect.
	cpuWrite32(n, RxHeaderAddrCh(0, 0)+csp.RxTrigOffset, 0x1234)
	if _, rx, _ := n.Stats(); rx != 0 {
		t.Error("CPU write raised RECEIVE trigger")
	}
}

func TestTransmitTriggerAndTransparentMapping(t *testing.T) {
	s, u, n := rig(2)
	s.RunUntil(1.25)
	base := TxHeaderAddr(3)
	// Software wrote arbitrary bytes into the stamp block; the COMCO
	// read of the trigger offset must latch the UTCSU sample, and reads
	// of the stamp block must return the registers, not memory.
	cpuWrite32(n, base+csp.OffTxStamp, 0x11111111)
	cpuWrite32(n, base+csp.OffTxMacro, 0x22222222)
	cpuWrite32(n, base+csp.OffTxAlpha, 0x33333333)
	u.SetAlpha(timefmt.Duration(5), timefmt.Duration(9))
	s.RunUntil(1.2501)

	_ = n.COMCORead32(base + csp.OffTxTrig)
	ts := n.COMCORead32(base + csp.OffTxStamp)
	ms := n.COMCORead32(base + csp.OffTxMacro)
	al := n.COMCORead32(base + csp.OffTxAlpha)
	st, ok := timefmt.FromWords(ts, ms)
	if !ok {
		t.Fatal("mapped stamp fails checksum")
	}
	if d := st.Seconds() - 1.2501; d < 0 || d > 1e-6 {
		t.Errorf("mapped stamp offset %v", d)
	}
	if al>>16 != 5 || al&0xFFFF != 9 {
		t.Errorf("mapped alpha word %08x", al)
	}
	if tx, _, _ := n.Stats(); tx != 1 {
		t.Errorf("tx triggers = %d", tx)
	}
	// A COMCO read of a non-trigger offset returns plain memory.
	cpuWrite32(n, base+0x00, 0xAAAA5555)
	if n.COMCORead32(base+0x00) != 0xAAAA5555 {
		t.Error("plain COMCO read altered")
	}
}

func TestTransmitMappingRequiresTrigger(t *testing.T) {
	_, _, n := rig(3)
	base := TxHeaderAddr(0)
	cpuWrite32(n, base+csp.OffTxStamp, 0x77777777)
	// Without a prior trigger the stamp block reads back memory.
	if n.COMCORead32(base+csp.OffTxStamp) != 0x77777777 {
		t.Error("stamp block mapped before any trigger")
	}
}

func TestReceiveTriggerLatchesHeaderBase(t *testing.T) {
	s, _, n := rig(4)
	s.RunUntil(2)
	base := RxHeaderAddrCh(0, 5)
	n.COMCOWrite32(base+csp.RxTrigOffset, 0xCAFEBABE)
	if cpuRead32(n, base+csp.RxTrigOffset) != 0xCAFEBABE {
		t.Error("trigger write did not reach memory")
	}
	st, _, _, latched, seq := n.ReadRxSample()
	if latched != base {
		t.Errorf("latched base %#x, want %#x", latched, base)
	}
	if seq != 1 {
		t.Errorf("sample seq = %d", seq)
	}
	if d := st.Seconds() - 2; d < 0 || d > 1e-6 {
		t.Errorf("rx stamp offset %v", d)
	}
	// Writes at other offsets of the header do not trigger.
	n.COMCOWrite32(base+0x00, 1)
	if _, rx, _ := n.Stats(); rx != 1 {
		t.Errorf("rx triggers = %d", rx)
	}
}

func TestBackToBackOverwritesSample(t *testing.T) {
	s, _, n := rig(5)
	s.RunUntil(1)
	n.COMCOWrite32(RxHeaderAddrCh(0, 0)+csp.RxTrigOffset, 0)
	s.RunUntil(1.00005)
	n.COMCOWrite32(RxHeaderAddrCh(0, 1)+csp.RxTrigOffset, 0)
	_, _, _, latched, seq := n.ReadRxSample()
	if latched != RxHeaderAddrCh(0, 1) {
		t.Error("latch should follow the newest trigger")
	}
	if seq != 2 {
		t.Errorf("seq = %d; software uses the gap to detect the overrun", seq)
	}
}

func TestIORegisters(t *testing.T) {
	_, u, n := rig(6)
	var vectors []uint8
	n.OnInterrupt(func(v uint8) { vectors = append(vectors, v) })
	u.SSU(ssuRx(0)).EnableInterrupt(true)
	n.WriteIO(IOVectorBase, 0x40)
	n.WriteIO(IOIntEnable, 1)
	n.WriteIO(IOIntEnable, 0)
	n.COMCOWrite32(RxHeaderAddrCh(0, 0)+csp.RxTrigOffset, 0)
	if len(vectors) != 0 {
		t.Errorf("interrupt delivered after disable: %v", vectors)
	}
	n.WriteIO(IOIntEnable, 1)
	n.WriteIO(0x80, 0) // unmapped: must not touch the enable register
	n.COMCOWrite32(RxHeaderAddrCh(0, 1)+csp.RxTrigOffset, 0)
	if len(vectors) != 1 || vectors[0] != 0x40|VecINTN {
		t.Errorf("vectors = %v, want [0x41]", vectors)
	}
}

func TestInterruptVectorComposition(t *testing.T) {
	s, u, n := rig(8)
	s.RunUntil(0.5)
	var vectors []uint8
	n.OnInterrupt(func(v uint8) { vectors = append(vectors, v) })
	n.WriteIO(IOVectorBase, 0x40)
	n.EnableInts()
	// INTN via a receive trigger with interrupts enabled on the SSU.
	u.SSU(ssuRx(0)).EnableInterrupt(true)
	n.COMCOWrite32(RxHeaderAddrCh(0, 0)+csp.RxTrigOffset, 0)
	if len(vectors) != 1 || vectors[0] != 0x40|VecINTN {
		t.Fatalf("vectors = %v, want [0x41]", vectors)
	}
	// Interrupts auto-disable until software re-enables: second trigger lost.
	n.COMCOWrite32(RxHeaderAddrCh(0, 1)+csp.RxTrigOffset, 0)
	if len(vectors) != 1 {
		t.Error("interrupt delivered while disabled")
	}
	if _, _, lost := n.Stats(); lost != 1 {
		t.Errorf("lost interrupts = %d", lost)
	}
	n.EnableInts()
	n.COMCOWrite32(RxHeaderAddrCh(0, 2)+csp.RxTrigOffset, 0)
	if len(vectors) != 2 {
		t.Error("interrupt not delivered after re-enable")
	}
}

func TestTimerInterruptVector(t *testing.T) {
	s, u, n := rig(9)
	var vectors []uint8
	n.OnInterrupt(func(v uint8) { vectors = append(vectors, v) })
	n.WriteIO(IOVectorBase, 0x80)
	n.EnableInts()
	u.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(1)), func() {})
	s.RunUntil(2)
	if len(vectors) != 1 || vectors[0] != 0x80|VecINTT {
		t.Errorf("vectors = %v, want [0x82]", vectors)
	}
}

func TestHeaderAddrBounds(t *testing.T) {
	for _, fn := range []func(){
		func() { TxHeaderAddr(-1) },
		func() { TxHeaderAddr(NumTxHeaders) },
		func() { RxHeaderAddrCh(0, -1) },
		func() { RxHeaderAddrCh(0, NumRxHeaders) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range header index accepted")
				}
			}()
			fn()
		}()
	}
}
