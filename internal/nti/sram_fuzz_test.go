package nti

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"ntisim/internal/csp"
)

// flatSRAM is the reference the paged SRAM must match: the module memory
// as one flat array, where Go's slicing decides how far a copy reaches
// and which addresses panic.
type flatSRAM [MemSize]byte

func (m *flatSRAM) read(addr uint32, dst []byte)  { copy(dst, m[addr:]) }
func (m *flatSRAM) write(addr uint32, src []byte) { copy(m[addr:], src) }
func (m *flatSRAM) load32(addr uint32) uint32     { return binary.BigEndian.Uint32(m[addr:]) }
func (m *flatSRAM) store32(addr, v uint32)        { binary.BigEndian.PutUint32(m[addr:], v) }

// SRAM operations of a FuzzSRAM program.
const (
	opCPURead = iota
	opCPUWrite
	opCPURead32
	opCPUWrite32
	opCOMCORead32
	opCOMCOWrite32
	numOps
)

// sramOpSize is the size of one encoded operation: a kind byte, a 24-bit
// big-endian address and a 32-bit big-endian argument. The address is
// taken modulo MemSize+pageSize, so programs reach past the end of the
// SRAM. For the word writes the argument is the value; for CPURead and
// CPUWrite its low 11 bits are the length and its top byte seeds the
// bytes written.
const (
	sramOpSize  = 8
	maxSRAMOps  = 256
	sramAddrMod = MemSize + pageSize
)

// catch runs fn and reports whether it panicked.
func catch(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// FuzzSRAM drives one program of CPU and COMCO accesses against the paged
// SRAM and a flat reference. Both must panic on the same operations,
// return the same bytes and words, and end with the same contents; the
// pages allocated must be exactly those a completed write touched.
//
// Word accesses to the UTCSU register window are not SRAM and are
// skipped, as are comparisons of COMCO reads the CPLD answers from its
// transmit latch instead of memory.
func FuzzSRAM(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		_, _, n := rig(1)
		ref := new(flatSRAM)
		var written [numPages]bool
		touch := func(addr uint32, length int) {
			for a := addr; a < addr+uint32(length); a++ {
				written[a>>pageShift] = true
			}
		}
		for i := 0; i+sramOpSize <= len(prog) && i/sramOpSize < maxSRAMOps; i += sramOpSize {
			op := prog[i] % numOps
			addr := (uint32(prog[i+1])<<16 | uint32(prog[i+2])<<8 | uint32(prog[i+3])) % sramAddrMod
			arg := binary.BigEndian.Uint32(prog[i+4:])
			where := fmt.Sprintf("op %d (kind %d, addr %#x, arg %#x)", i/sramOpSize, op, addr, arg)
			inRegs := addr >= UTCSURegBase && addr < UTCSURegBase+UTCSURegSize
			var got, want uint32
			var gotPanic, wantPanic bool
			switch op {
			case opCPURead:
				g, w := bytes.Repeat([]byte{0xA5}, int(arg&0x7FF)), bytes.Repeat([]byte{0xA5}, int(arg&0x7FF))
				gotPanic = catch(func() { n.CPURead(addr, g) })
				wantPanic = catch(func() { ref.read(addr, w) })
				if !gotPanic && !bytes.Equal(g, w) {
					t.Fatalf("%s: CPURead returned % x, flat % x", where, g, w)
				}
			case opCPUWrite:
				src := make([]byte, arg&0x7FF)
				for j := range src {
					src[j] = byte(arg>>24) + byte(j)
				}
				gotPanic = catch(func() { n.CPUWrite(addr, src) })
				wantPanic = catch(func() { ref.write(addr, src) })
				if !wantPanic {
					touch(addr, min(len(src), MemSize-int(addr)))
				}
			case opCPURead32, opCOMCORead32:
				if op == opCPURead32 && inRegs {
					continue
				}
				if op == opCOMCORead32 {
					if off, ok := inTxHeaders(addr); ok && n.ch[channelOfTx((addr-TxHeadersBase)/HeaderSize)].txLatchValid &&
						(off == csp.OffTxStamp || off == csp.OffTxMacro || off == csp.OffTxAlpha) {
						continue
					}
					gotPanic = catch(func() { got = n.COMCORead32(addr) })
				} else {
					gotPanic = catch(func() { got = n.CPURead32(addr) })
				}
				wantPanic = catch(func() { want = ref.load32(addr) })
				if !gotPanic && !wantPanic && got != want {
					t.Fatalf("%s: word read %#x, flat %#x", where, got, want)
				}
			case opCPUWrite32, opCOMCOWrite32:
				if op == opCPUWrite32 && inRegs {
					continue
				}
				if op == opCOMCOWrite32 {
					gotPanic = catch(func() { n.COMCOWrite32(addr, arg) })
				} else {
					gotPanic = catch(func() { n.CPUWrite32(addr, arg) })
				}
				wantPanic = catch(func() { ref.store32(addr, arg) })
				if !wantPanic {
					touch(addr, 4)
				}
			}
			if gotPanic != wantPanic {
				t.Fatalf("%s: paged panicked=%v, flat panicked=%v", where, gotPanic, wantPanic)
			}
		}
		var zero [pageSize]byte
		for p, pg := range n.mem {
			if (pg != nil) != written[p] {
				t.Fatalf("page %d: allocated=%v, written=%v", p, pg != nil, written[p])
			}
			if pg == nil {
				pg = &zero
			}
			if flat := ref[p*pageSize : (p+1)*pageSize]; !bytes.Equal(pg[:], flat) {
				t.Fatalf("page %d differs from the flat reference", p)
			}
		}
	})
}
