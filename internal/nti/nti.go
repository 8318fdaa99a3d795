// Package nti models the Network Time Interface MA-Module (paper §3).
//
// The NTI couples a UTCSU, 256 KB of dual-ported SRAM and a CPLD onto an
// MA-Module mezzanine interface. The CPLD decodes two address regions
// onto the same physical memory (Fig. 6): plain CPU accesses, and COMCO
// accesses with the timestamping side effects of §3.1/§3.4:
//
//   - a COMCO *read* of offset 0x14 inside a transmit header raises the
//     TRANSMIT trigger; the sampled UTCSU time/accuracy registers are
//     transparently mapped over offsets 0x18/0x1C/0x20, so they ride into
//     the outgoing packet without software involvement;
//   - a COMCO *write* of offset 0x1C inside a receive header raises the
//     RECEIVE trigger and latches the header's base address into the
//     Receive Header Base I/O register, so the ISR can associate the
//     sampled stamp with the right packet even for back-to-back CSPs
//     (footnote 4);
//   - the three UTCSU interrupt pins are folded into the M-Module's
//     single vectorized interrupt, with the pin state encoded in the
//     vector and an enable register written at the end of each ISR.
package nti

import (
	"encoding/binary"
	"fmt"

	"ntisim/internal/csp"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

// Memory map of the COMCO-visible 256 KB region (Fig. 6). The same
// physical SRAM appears again at CPUBase for plain accesses. The model
// backs the region with 4 KB pages allocated on first write: a node
// touches its header pages and a few data slots, never the 184 KB of
// system structures, so untouched pages cost nothing. A page never
// written reads as zeros, the SRAM's modelled power-on state.
const (
	MemSize = 256 * 1024

	TxHeadersBase = 0x00000 // 4 KB of 64-byte transmit headers
	TxHeadersSize = 4 * 1024
	RxHeadersBase = TxHeadersBase + TxHeadersSize // 8 KB of receive headers
	RxHeadersSize = 8 * 1024
	DataBase      = RxHeadersBase + RxHeadersSize // 60 KB data buffers
	DataSize      = 60 * 1024
	SystemBase    = DataBase + DataSize // 184 KB system structures
	SystemSize    = MemSize - SystemBase

	HeaderSize   = 64
	NumTxHeaders = TxHeadersSize / HeaderSize
	NumRxHeaders = RxHeadersSize / HeaderSize
)

// SRAM paging: pageSize-byte pages, indexed by addr>>pageShift.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	numPages  = MemSize / pageSize
)

// I/O-space register offsets (Fig. 8).
const (
	IOVectorBase = 0x02
	IOIntEnable  = 0x04
)

// SSU channel assignment: the NTI wires the transmit trigger of network
// channel c to SSU 2c and the receive trigger to SSU 2c+1. The UTCSU's
// six SSUs thus support up to three independent channels — "to
// facilitate fault-tolerant (redundant) communications architectures or
// gateway nodes" (paper §3.3).
const NumChannels = 3

// ssuTx/ssuRx map a channel to its SSU indices.
func ssuTx(ch int) int { return 2 * ch }
func ssuRx(ch int) int { return 2*ch + 1 }

// Interrupt pin bits encoded into the delivered vector (paper §3.4:
// "the final vector also includes the state of the three UTCSU interrupt
// pins INTT, INTN, and INTA").
const (
	VecINTN = 1 << 0
	VecINTT = 1 << 1
	VecINTA = 1 << 2
)

// NTI is one module instance.
type NTI struct {
	u *utcsu.UTCSU
	// mem is the SRAM as a page table: a nil page has never been
	// written and reads as zeros.
	mem [numPages]*[pageSize]byte

	ch [NumChannels]channelState

	vectorBase uint8 // I/O reg 0x02
	intEnabled bool  // I/O reg 0x04

	onInterrupt func(vector uint8)

	lostInts uint64
}

// channelState holds one network channel's CPLD state: the latched
// transmit sample (transparently mapped over the stamp block of the
// header being fetched) and the Receive Header Base latch.
type channelState struct {
	txLatchValid bool
	txStampWord  uint32
	txMacroWord  uint32
	txAlphaWord  uint32
	rxHeaderBase uint32
	txTriggers   uint64
	rxTriggers   uint64
}

// New builds an NTI around the given UTCSU and programs the CPLD's
// interrupt forwarding.
func New(u *utcsu.UTCSU) *NTI {
	n := &NTI{u: u}
	u.OnInterrupt(n.forwardInterrupt)
	for _, l := range []utcsu.IntLine{utcsu.INTN, utcsu.INTT, utcsu.INTA} {
		u.EnableInt(l, true)
	}
	return n
}

// Per-channel header partitions: the CPLD decodes the channel from the
// header's address range.
const (
	TxHeadersPerCh = NumTxHeaders / NumChannels
	RxHeadersPerCh = NumRxHeaders / NumChannels
)

// TxHeaderAddr returns the base address of channel 0's transmit header i.
func TxHeaderAddr(i int) uint32 { return TxHeaderAddrCh(0, i) }

// TxHeaderAddrCh returns the base address of transmit header i of the
// given channel's partition.
func TxHeaderAddrCh(ch, i int) uint32 {
	if ch < 0 || ch >= NumChannels || i < 0 || i >= TxHeadersPerCh {
		panic(fmt.Sprintf("nti: tx header %d/%d out of range", ch, i))
	}
	return TxHeadersBase + uint32(ch*TxHeadersPerCh+i)*HeaderSize
}

// RxHeaderAddrCh returns the base address of receive header i of the
// given channel's partition.
func RxHeaderAddrCh(ch, i int) uint32 {
	if ch < 0 || ch >= NumChannels || i < 0 || i >= RxHeadersPerCh {
		panic(fmt.Sprintf("nti: rx header %d/%d out of range", ch, i))
	}
	return RxHeadersBase + uint32(ch*RxHeadersPerCh+i)*HeaderSize
}

// channelOfTx returns the channel owning a transmit-header index.
func channelOfTx(idx uint32) int { return int(idx) / TxHeadersPerCh % NumChannels }

// channelOfRx returns the channel owning a receive-header index.
func channelOfRx(idx uint32) int { return int(idx) / RxHeadersPerCh % NumChannels }

// Data-buffer slots: each receive header has a matching slot in the
// Data Buffers section where the COMCO deposits payload beyond the
// 64-byte header (ordinary packet data, Fig. 6).
const DataSlotSize = DataSize / NumRxHeaders // 480 bytes

// DataSlotAddr returns the data-buffer slot paired with receive header
// i of a channel.
func DataSlotAddr(ch, i int) uint32 {
	if ch < 0 || ch >= NumChannels || i < 0 || i >= RxHeadersPerCh {
		panic(fmt.Sprintf("nti: data slot %d/%d out of range", ch, i))
	}
	return DataBase + uint32(ch*RxHeadersPerCh+i)*DataSlotSize
}

// inTxHeaders reports whether addr lies in the transmit header section,
// returning the offset within its header.
func inTxHeaders(addr uint32) (off uint32, ok bool) {
	if addr >= TxHeadersBase && addr < TxHeadersBase+TxHeadersSize {
		return addr % HeaderSize, true
	}
	return 0, false
}

func inRxHeaders(addr uint32) (off uint32, ok bool) {
	if addr >= RxHeadersBase && addr < RxHeadersBase+RxHeadersSize {
		return (addr - RxHeadersBase) % HeaderSize, true
	}
	return 0, false
}

// CPU accesses: plain memory, no special functionality (paper §3.1:
// "CPU-accesses are just plain memory accesses").

// CPURead copies out of the SRAM. The copy stops at the end of the
// SRAM; an addr beyond the end panics.
func (n *NTI) CPURead(addr uint32, dst []byte) {
	dst = dst[:min(len(dst), span(addr))]
	for len(dst) > 0 {
		var k int
		if pg := n.mem[addr>>pageShift]; pg != nil {
			k = copy(dst, pg[addr&pageMask:])
		} else {
			k = min(len(dst), pageSize-int(addr&pageMask))
			clear(dst[:k])
		}
		dst = dst[k:]
		addr += uint32(k)
	}
}

// CPUWrite copies into the SRAM, with CPURead's bounds.
func (n *NTI) CPUWrite(addr uint32, src []byte) {
	src = src[:min(len(src), span(addr))]
	for len(src) > 0 {
		k := copy(n.page(addr)[addr&pageMask:], src)
		src = src[k:]
		addr += uint32(k)
	}
}

// span returns the number of SRAM bytes from addr to the end of the
// SRAM, panicking when addr lies beyond it.
func span(addr uint32) int {
	if addr > MemSize {
		panic(fmt.Sprintf("nti: SRAM address %#x out of range", addr))
	}
	return int(MemSize - addr)
}

// page returns the page holding addr, allocating it on first write.
func (n *NTI) page(addr uint32) *[pageSize]byte {
	pg := n.mem[addr>>pageShift]
	if pg == nil {
		pg = new([pageSize]byte)
		n.mem[addr>>pageShift] = pg
	}
	return pg
}

// load32/store32 are the SRAM's big-endian word accesses. A word inside
// one page is read or written in place; only an unaligned word across a
// page boundary falls back to the byte walk.
func (n *NTI) load32(addr uint32) uint32 {
	checkWord(addr)
	if off := addr & pageMask; off <= pageSize-4 {
		if pg := n.mem[addr>>pageShift]; pg != nil {
			return binary.BigEndian.Uint32(pg[off:])
		}
		return 0
	}
	var b [4]byte
	n.CPURead(addr, b[:])
	return binary.BigEndian.Uint32(b[:])
}

func (n *NTI) store32(addr, v uint32) {
	checkWord(addr)
	if off := addr & pageMask; off <= pageSize-4 {
		binary.BigEndian.PutUint32(n.page(addr)[off:], v)
		return
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	n.CPUWrite(addr, b[:])
}

// checkWord panics unless the four bytes at addr lie inside the SRAM.
func checkWord(addr uint32) {
	if addr > MemSize-4 {
		panic(fmt.Sprintf("nti: SRAM word address %#x out of range", addr))
	}
}

// COMCORead32 performs a COMCO (DMA) read with the CPLD's special
// functionality: reading the trigger word of a transmit header samples
// the UTCSU into the latch; reading the stamp block returns the latched
// registers instead of memory.
func (n *NTI) COMCORead32(addr uint32) uint32 {
	if off, ok := inTxHeaders(addr); ok {
		ch := channelOfTx((addr - TxHeadersBase) / HeaderSize)
		c := &n.ch[ch]
		switch off {
		case csp.OffTxTrig:
			stamp, _ := n.u.SSU(ssuTx(ch)).Trigger(true)
			am, ap, _, _ := ssuAlphas(n.u, ssuTx(ch))
			c.txStampWord, c.txMacroWord = stamp.Words()
			c.txAlphaWord = uint32(am)<<16 | uint32(ap)
			c.txLatchValid = true
			c.txTriggers++
		case csp.OffTxStamp:
			if c.txLatchValid {
				return c.txStampWord
			}
		case csp.OffTxMacro:
			if c.txLatchValid {
				return c.txMacroWord
			}
		case csp.OffTxAlpha:
			if c.txLatchValid {
				return c.txAlphaWord
			}
		}
	}
	return n.load32(addr)
}

// ssuAlphas reads the alpha registers sampled by the unit's last trigger.
func ssuAlphas(u *utcsu.UTCSU, i int) (timefmt.Alpha, timefmt.Alpha, timefmt.Stamp, uint64) {
	st, am, ap, seq := u.SSU(i).Read()
	return am, ap, st, seq
}

// COMCOWrite32 performs a COMCO (DMA) write: writing the receive trigger
// offset inside a receive header raises RECEIVE and latches the header
// base address for the ISR.
func (n *NTI) COMCOWrite32(addr uint32, v uint32) {
	n.store32(addr, v)
	if off, ok := inRxHeaders(addr); ok && off == csp.RxTrigOffset {
		ch := channelOfRx((addr - RxHeadersBase) / HeaderSize)
		n.u.SSU(ssuRx(ch)).Trigger(true)
		n.ch[ch].rxHeaderBase = addr - off
		n.ch[ch].rxTriggers++
	}
}

// ReadRxSample returns channel 0's receive SSU sample registers together
// with the latched Receive Header Base — what the reception ISR reads
// first.
func (n *NTI) ReadRxSample() (stamp timefmt.Stamp, alphaM, alphaP timefmt.Alpha, headerBase uint32, seq uint64) {
	return n.ReadRxSampleCh(0)
}

// ReadRxSampleCh is ReadRxSample for an arbitrary channel.
func (n *NTI) ReadRxSampleCh(ch int) (stamp timefmt.Stamp, alphaM, alphaP timefmt.Alpha, headerBase uint32, seq uint64) {
	st, am, ap, sq := n.u.SSU(ssuRx(ch)).Read()
	return st, am, ap, n.ch[ch].rxHeaderBase, sq
}

// I/O space (Fig. 8).

// WriteIO writes an I/O-space register.
func (n *NTI) WriteIO(off uint32, v uint32) {
	switch off {
	case IOVectorBase:
		n.vectorBase = uint8(v)
	case IOIntEnable:
		n.intEnabled = v != 0
	}
}

// Interrupt forwarding: the CPLD folds the three UTCSU pins onto the
// M-Module's single interrupt line, composing the vector from the
// programmed base and the pin state. The NTI disables further interrupts
// until software re-enables them via the I/O register (paper §3.4),
// modelling the usual "write 0x04 just before RTE" discipline.
func (n *NTI) forwardInterrupt(line utcsu.IntLine, source string) {
	if !n.intEnabled {
		n.lostInts++
		return
	}
	n.intEnabled = false
	var pin uint8
	switch line {
	case utcsu.INTN:
		pin = VecINTN
	case utcsu.INTT:
		pin = VecINTT
	case utcsu.INTA:
		pin = VecINTA
	}
	if n.onInterrupt != nil {
		n.onInterrupt(n.vectorBase | pin)
	}
}

// OnInterrupt installs the carrier-board interrupt handler (the kernel's
// first-level dispatcher). Interrupts stay disabled until EnableInts.
func (n *NTI) OnInterrupt(fn func(vector uint8)) { n.onInterrupt = fn }

// EnableInts is the ISR-exit write to the Dis/Enable Interrupt Logic
// register.
func (n *NTI) EnableInts() { n.WriteIO(IOIntEnable, 1) }

// Stats reports channel 0's trigger counters and lost interrupts.
func (n *NTI) Stats() (txTriggers, rxTriggers, lostInts uint64) {
	return n.ch[0].txTriggers, n.ch[0].rxTriggers, n.lostInts
}

// ChannelStats reports one channel's trigger counters.
func (n *NTI) ChannelStats(ch int) (txTriggers, rxTriggers uint64) {
	return n.ch[ch].txTriggers, n.ch[ch].rxTriggers
}
