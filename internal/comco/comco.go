// Package comco models the Communications Coprocessor: an Intel
// 82596CA-class Ethernet controller that moves packets between the NTI's
// shared memory and the network medium by DMA, independently of the CPU
// (paper Fig. 2).
//
// The timing of its individual memory accesses is what the NTI's
// timestamping exploits, and what is left of the transmission/reception
// uncertainty ε once the NTI is in place (paper §3.1): on transmit, the
// header words are prefetched into the on-chip FIFO right after medium
// acquisition (the read of the trigger word at offset 0x14 raises
// TRANSMIT); on receive, the header words are written to memory after
// frame end, behind a bus-arbitration delay (the write of offset 0x1C
// raises RECEIVE). Both paths carry small bounded jitter — the "ongoing
// data transmission and the bus arbitration" terms the paper identifies.
//
// Each frame's header moves as one pooled burst per direction: a
// 64-byte buffer with its 16 timed word transfers, scheduled as one
// sim.Chain. The transmit reads fill the buffer that is lent to the bus
// as the frame; a received header is copied into the buffer at arrival
// and the writes store from that copy. A burst returns to the pool when
// the last of its 17 references drops: the bus's done hook and the 16
// reads, or the 16 writes and rx-done. The package tests keep the
// earlier one-object-per-word controller as a reference that
// FuzzDMABurst holds the burst to.
package comco

import (
	"encoding/binary"

	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/sim"
	"ntisim/internal/trace"
)

// DMA timing of the 82596CA on a VME carrier.
const (
	dmaWordTimeS = 400e-9 // one 32-bit word bus transfer
	txFIFOBytes  = 32     // transmit prefetch FIFO depth
	// Bus arbitration before a DMA burst is uniform in [arbMinS, arbMaxS].
	arbMinS = 100e-9
	arbMaxS = 400e-9
)

// COMCO is one controller instance attached to a medium and an NTI.
type COMCO struct {
	s       *sim.Simulator
	nti     *nti.NTI
	med     network.Bus
	rng     *sim.RNG
	station int
	channel int

	rxNext     int
	onRxStored func(fid uint64, headerBase uint32, corrupt bool)

	txFrames uint64
	rxFrames uint64

	// tr is the simulator's tracer (nil when off); trNode is the node id
	// records are attributed to (the kernel's global node id — may differ
	// from the medium-local station id on gateway nodes). trWords caches
	// Options.DMAWords so the per-word hot path is one flag test.
	tr      *trace.Tracer
	trNode  int
	trWords bool

	// free holds the idle bursts: one pooled object per frame in flight
	// keeps the steady-state DMA timing model allocation-free.
	free []*burst
}

// words is the number of 32-bit DMA transfers in one frame: a frame is
// one 64-byte header.
const words = nti.HeaderSize / 4

// burst is one pooled DMA transfer of one frame's header, in either
// direction (see the package doc). It goes back on the free list when
// the last of its 17 references drops: at 10 Mb/s a transmit's last
// read precedes frame end, at high bit rates it need not.
type burst struct {
	c       *COMCO
	buf     [nti.HeaderSize]byte
	fid     uint64 // frame trace id (flow key)
	base    uint32 // header base address
	tx      bool
	corrupt bool // rx: the frame failed its CRC
	refs    int

	word     [words]func()
	acquired func(at float64) // tx: serialization began
	lent     func()           // tx: the bus hands buf back
	done     func()           // rx: end of reception
}

func (b *burst) fetch(at float64) { b.c.fetchHeader(b, at) }

func (b *burst) unref() {
	if b.refs--; b.refs == 0 {
		b.c.free = append(b.c.free, b)
	}
}

// access is the timed transfer of word w: a read into buf on transmit,
// a write of buf's word on receive. As every burst callback does, it
// reads the fields first, then releases, then makes the call that may
// schedule more DMA; a read lands in buf before its release.
func (b *burst) access(w int) {
	c := b.c
	off := uint32(4 * w)
	addr, fid, tx := b.base+off, b.fid, b.tx
	trig := off == csp.RxTrigOffset
	if tx {
		trig = off == csp.OffTxTrig
		binary.BigEndian.PutUint32(b.buf[off:], c.nti.COMCORead32(addr))
		b.unref()
	} else {
		val := binary.BigEndian.Uint32(b.buf[off:])
		b.unref()
		c.nti.COMCOWrite32(addr, val)
	}
	if c.tr != nil {
		if c.trWords {
			c.tr.Emit(trace.KindDMAWord, c.s.Now(), c.trNode, c.channel, fid, uint64(addr), 0)
		}
		if trig {
			k := trace.KindRxTrigger
			if tx {
				k = trace.KindTxTrigger
			}
			c.tr.Emit(k, c.s.Now(), c.trNode, c.channel, fid, uint64(addr), 0)
		}
	}
}

// rxComplete is the end-of-reception notification (the moment the real
// chip would raise its interrupt).
func (b *burst) rxComplete() {
	c := b.c
	base, corrupt, fid := b.base, b.corrupt, b.fid
	b.unref()
	c.rxFrames++
	if c.tr != nil {
		c.tr.Emit(trace.KindRxDone, c.s.Now(), c.trNode, c.channel, fid, uint64(base), 0)
	}
	if c.onRxStored != nil {
		c.onRxStored(fid, base, corrupt)
	}
}

// alloc takes an idle burst holding its 17 references, growing the pool
// (and binding the new burst's callbacks) when none is free.
func (c *COMCO) alloc(tx bool, base uint32) *burst {
	if len(c.free) == 0 {
		b := &burst{c: c}
		for w := range b.word {
			b.word[w] = func() { b.access(w) }
		}
		b.acquired, b.lent, b.done = b.fetch, b.unref, b.rxComplete
		c.free = append(c.free, b)
	}
	n := len(c.free) - 1
	b := c.free[n]
	c.free[n] = nil
	c.free = c.free[:n]
	b.tx, b.base, b.refs = tx, base, words+1
	return b
}

// NewChannel creates a controller on an NTI channel, attaching it to the
// medium as a station — gateway nodes run one controller per attached
// LAN segment, each wired to its own SSU pair (paper §3.3). The
// controller traces through the simulator's tracer, attributing its
// records to node id `node`: tx-trigger, rx-trigger, rx-done and — when
// the tracer asks for them — every timed DMA word.
func NewChannel(s *sim.Simulator, module *nti.NTI, med network.Bus, label string, channel, node int) *COMCO {
	c := &COMCO{
		s: s, nti: module, med: med, rng: s.RNG("comco/" + label), channel: channel,
		tr: s.Tracer(), trNode: node, trWords: s.Tracer().Options().DMAWords,
	}
	c.station = med.Attach(c)
	return c
}

// Station returns the controller's station id on the medium.
func (c *COMCO) Station() int { return c.station }

// OnRxStored installs the frame-reception callback: it fires when the
// last header word has been deposited in NTI memory, i.e. at the moment
// the real chip would raise its reception interrupt. fid is the frame's
// medium-assigned trace id; corrupt reports a CRC failure — the frame
// was still DMA'd (and the RECEIVE trigger fired! paper footnote 4) but
// must be discarded by software.
func (c *COMCO) OnRxStored(fn func(fid uint64, headerBase uint32, corrupt bool)) {
	c.onRxStored = fn
}

// Transmit queues the CSP image residing in transmit header slot
// headerIdx (64 bytes, already written by the CPU) for transmission;
// the frame is that header and nothing else. Its bytes are produced by
// timed DMA reads through the NTI's decode logic, so the TRANSMIT
// trigger fires and the stamp words are inserted on the fly.
// It returns the frame's medium-assigned trace id.
func (c *COMCO) Transmit(headerIdx int, dst int) uint64 {
	b := c.alloc(true, nti.TxHeaderAddrCh(c.channel, headerIdx))
	// A delivery that precedes a DMA read (a frame shorter on the wire
	// than the FIFO prefill) sees zeros, as in a fresh buffer.
	clear(b.buf[:])
	b.fid = c.med.Lend(network.Frame{Src: c.station, Dst: dst, Payload: b.buf[:]}, b.acquired, b.lent)
	c.txFrames++
	return b.fid
}

// TransmitRaw sends a pre-assembled frame without going through the
// NTI's transmit-header decode logic — the path a system *without* NTI
// support uses (the software-only baselines of experiment E2): the
// payload bytes leave exactly as software wrote them, so any timestamp
// they carry was taken before medium access.
// It returns the frame's medium-assigned trace id.
func (c *COMCO) TransmitRaw(payload []byte, dst int) uint64 {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	fid := c.med.Lend(network.Frame{Src: c.station, Dst: dst, Payload: buf}, nil, nil)
	c.txFrames++
	return fid
}

// fetchHeader schedules the DMA reads that fill the frame's header bytes
// while serialization is under way. Word w is read either during the
// initial FIFO prefill (back-to-back at DMA speed) or, once the FIFO is
// primed, paced by the wire draining it.
func (c *COMCO) fetchHeader(b *burst, acquiredAt float64) {
	arb := c.rng.Uniform(arbMinS, arbMaxS)
	preamble := 64 / c.med.Bitrate() // preamble bits on the wire
	ts, fns := c.s.ChainBuffers(words)
	for w := range ts {
		off := 4 * w
		var t float64
		if off < txFIFOBytes {
			t = acquiredAt + arb + float64(w)*dmaWordTimeS
		} else {
			drained := float64(off-txFIFOBytes) * 8 / c.med.Bitrate()
			t = acquiredAt + arb + preamble + drained
		}
		ts[w], fns[w] = t, b.word[w]
	}
	c.s.Chain(ts, fns) // past the FIFO prefill the times may run out of order
}

// FrameArrived implements network.Station: the controller DMAs the
// received header into the next receive-header slot, word by word,
// behind a bus-arbitration delay. The write of the RxTrigOffset word
// raises RECEIVE in the NTI. A frame is one 64-byte header; the model
// stores nothing beyond it.
func (c *COMCO) FrameArrived(f network.Frame) {
	if len(f.Payload) < nti.HeaderSize {
		return // runt or background frame: no CSP header to store
	}
	slot := c.rxNext
	c.rxNext = (c.rxNext + 1) % nti.RxHeadersPerCh
	b := c.alloc(false, nti.RxHeaderAddrCh(c.channel, slot))
	copy(b.buf[:], f.Payload)
	b.fid, b.corrupt = f.ID, f.Corrupt
	arb := c.rng.Uniform(arbMinS, arbMaxS)
	now := c.s.Now()
	ts, fns := c.s.ChainBuffers(words + 1)
	for w := 0; w < words; w++ {
		ts[w], fns[w] = now+(arb+float64(w)*dmaWordTimeS), b.word[w]
	}
	ts[words], fns[words] = now+(arb+float64(words)*dmaWordTimeS), b.done
	c.s.Chain(ts, fns)
}

// Stats reports frames transmitted and stored.
func (c *COMCO) Stats() (tx, rx uint64) { return c.txFrames, c.rxFrames }
