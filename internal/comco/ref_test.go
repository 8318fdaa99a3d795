package comco

import (
	"encoding/binary"

	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/sim"
	"ntisim/internal/trace"
)

// refCOMCO is the per-word reference controller: one pooled event
// object per DMA word, one per rx-done and one per in-flight transmit,
// each on its own free list, as the COMCO was before it moved to one
// burst object per frame. FuzzDMABurst requires the COMCO to match it.
type refCOMCO struct {
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

	// Pools for the in-flight transmits, the per-word DMA transfers (16
	// per frame per receiver) and the per-frame completion notification:
	// pooled jobs with a prebuilt callback keep the steady-state DMA
	// timing model allocation-free.
	freeTx   []*txFrame
	freeJobs []*dmaJob
	freeDone []*rxDone
}

// txFrame is one pooled in-flight transmit: the frame buffer the DMA
// reads land in, lent to the bus, with its acquisition and done hooks
// bound once. It goes back on the free list only when the bus has
// handed the buffer back and all of its DMA reads have fired: at
// 10 Mb/s the last read precedes frame end, at high bit rates it need
// not.
type txFrame struct {
	c        *refCOMCO
	buf      [nti.HeaderSize]byte
	fid      uint64
	base     uint32
	refs     int // the bus's done hook plus the DMA reads not yet fired
	acquired func(at float64)
	done     func()
}

func (t *txFrame) fetch(at float64) { t.c.fetchHeader(t, at) }

func (t *txFrame) unref() {
	if t.refs--; t.refs == 0 {
		t.c.freeTx = append(t.c.freeTx, t)
	}
}

func (c *refCOMCO) allocTx() *txFrame {
	if n := len(c.freeTx); n > 0 {
		t := c.freeTx[n-1]
		c.freeTx[n-1] = nil
		c.freeTx = c.freeTx[:n-1]
		// A delivery that precedes a DMA read (a frame shorter on the
		// wire than the FIFO prefill) sees zeros, as in a fresh buffer.
		clear(t.buf[:])
		return t
	}
	t := &txFrame{c: c}
	t.acquired, t.done = t.fetch, t.unref
	return t
}

// dmaJob is one pooled timed 32-bit DMA transfer: a read through the
// NTI's decode logic into a transmit frame (tx set), or a write of a
// received word into NTI memory.
type dmaJob struct {
	c    *refCOMCO
	addr uint32
	val  uint32   // rx: word to deposit
	tx   *txFrame // tx: the frame the read lands in
	off  int
	fid  uint64 // frame trace id (flow key)
	trig bool   // this word is the TRANSMIT/RECEIVE trigger access
	run  func()
}

func (j *dmaJob) fire() {
	c := j.c
	tx, addr, off, val := j.tx, j.addr, j.off, j.val
	fid, trig := j.fid, j.trig
	j.tx = nil
	c.freeJobs = append(c.freeJobs, j) // release first: the access below may schedule more DMA
	if tx != nil {
		binary.BigEndian.PutUint32(tx.buf[off:], c.nti.COMCORead32(addr))
		tx.unref()
	} else {
		c.nti.COMCOWrite32(addr, val)
	}
	if c.tr != nil {
		if c.trWords {
			c.tr.Emit(trace.KindDMAWord, c.s.Now(), c.trNode, c.channel, fid, uint64(addr), 0)
		}
		if trig {
			k := trace.KindRxTrigger
			if tx != nil {
				k = trace.KindTxTrigger
			}
			c.tr.Emit(k, c.s.Now(), c.trNode, c.channel, fid, uint64(addr), 0)
		}
	}
}

func (c *refCOMCO) allocJob() *dmaJob {
	if n := len(c.freeJobs); n > 0 {
		j := c.freeJobs[n-1]
		c.freeJobs[n-1] = nil
		c.freeJobs = c.freeJobs[:n-1]
		return j
	}
	j := &dmaJob{c: c}
	j.run = j.fire
	return j
}

// rxDone is the pooled end-of-reception notification (the moment the
// real chip would raise its interrupt).
type rxDone struct {
	c       *refCOMCO
	base    uint32
	fid     uint64
	corrupt bool
	run     func()
}

func (d *rxDone) fire() {
	c := d.c
	base, corrupt, fid := d.base, d.corrupt, d.fid
	c.freeDone = append(c.freeDone, d)
	c.rxFrames++
	if c.tr != nil {
		c.tr.Emit(trace.KindRxDone, c.s.Now(), c.trNode, c.channel, fid, uint64(base), 0)
	}
	if c.onRxStored != nil {
		c.onRxStored(fid, base, corrupt)
	}
}

func (c *refCOMCO) allocDone() *rxDone {
	if n := len(c.freeDone); n > 0 {
		d := c.freeDone[n-1]
		c.freeDone[n-1] = nil
		c.freeDone = c.freeDone[:n-1]
		return d
	}
	d := &rxDone{c: c}
	d.run = d.fire
	return d
}

// newRefChannel attaches a reference controller, as NewChannel does.
func newRefChannel(s *sim.Simulator, module *nti.NTI, med network.Bus, label string, channel, node int) *refCOMCO {
	c := &refCOMCO{
		s: s, nti: module, med: med, rng: s.RNG("comco/" + label), channel: channel,
		tr: s.Tracer(), trNode: node, trWords: s.Tracer().Options().DMAWords,
	}
	c.station = med.Attach(c)
	return c
}

// OnRxStored installs the frame-reception callback: it fires when the
// last header word has been deposited in NTI memory, i.e. at the moment
// the real chip would raise its reception interrupt. fid is the frame's
// medium-assigned trace id; corrupt reports a CRC failure — the frame
// was still DMA'd (and the RECEIVE trigger fired! paper footnote 4) but
// must be discarded by software.
func (c *refCOMCO) OnRxStored(fn func(fid uint64, headerBase uint32, corrupt bool)) {
	c.onRxStored = fn
}

// Transmit queues the CSP image residing in transmit header slot
// headerIdx (64 bytes, already written by the CPU) for transmission;
// the frame is that header and nothing else. Its bytes are produced by
// timed DMA reads through the NTI's decode logic, so the TRANSMIT
// trigger fires and the stamp words are inserted on the fly.
// It returns the frame's medium-assigned trace id.
func (c *refCOMCO) Transmit(headerIdx int, dst int) uint64 {
	t := c.allocTx()
	t.base = nti.TxHeaderAddrCh(c.channel, headerIdx)
	t.refs = 1 + nti.HeaderSize/4
	t.fid = c.med.Lend(network.Frame{Src: c.station, Dst: dst, Payload: t.buf[:]}, t.acquired, t.done)
	c.txFrames++
	return t.fid
}

// fetchHeader schedules the DMA reads that fill the frame's header bytes
// while serialization is under way. Word w is read either during the
// initial FIFO prefill (back-to-back at DMA speed) or, once the FIFO is
// primed, paced by the wire draining it.
func (c *refCOMCO) fetchHeader(tx *txFrame, acquiredAt float64) {
	arb := c.rng.Uniform(arbMinS, arbMaxS)
	preamble := 64 / c.med.Bitrate() // preamble bits on the wire
	ts, fns := c.s.ChainBuffers(nti.HeaderSize / 4)
	for w := range ts {
		off := uint32(4 * w)
		var t float64
		if int(off) < txFIFOBytes {
			t = acquiredAt + arb + float64(w)*dmaWordTimeS
		} else {
			drained := float64(int(off)-txFIFOBytes) * 8 / c.med.Bitrate()
			t = acquiredAt + arb + preamble + drained
		}
		j := c.allocJob()
		j.tx = tx
		j.addr = tx.base + off
		j.off = int(off)
		j.fid = tx.fid
		j.trig = off == csp.OffTxTrig
		ts[w], fns[w] = t, j.run
	}
	c.s.Chain(ts, fns) // past the FIFO prefill the times may run out of order
}

// FrameArrived implements network.Station: the controller DMAs the
// received header into the next receive-header slot, word by word,
// behind a bus-arbitration delay. The write of the RxTrigOffset word
// raises RECEIVE in the NTI. A frame is one 64-byte header; the model
// stores nothing beyond it.
func (c *refCOMCO) FrameArrived(f network.Frame) {
	if len(f.Payload) < nti.HeaderSize {
		return // runt or background frame: no CSP header to store
	}
	slot := c.rxNext
	c.rxNext = (c.rxNext + 1) % nti.RxHeadersPerCh
	base := nti.RxHeaderAddrCh(c.channel, slot)
	arb := c.rng.Uniform(arbMinS, arbMaxS)
	const words = nti.HeaderSize / 4
	now := c.s.Now()
	ts, fns := c.s.ChainBuffers(words + 1)
	for w := 0; w < words; w++ {
		j := c.allocJob()
		j.addr = base + uint32(4*w)
		j.val = binary.BigEndian.Uint32(f.Payload[4*w:])
		j.fid = f.ID
		j.trig = uint32(4*w) == csp.RxTrigOffset
		ts[w], fns[w] = now+(arb+float64(w)*dmaWordTimeS), j.run
	}
	d := c.allocDone()
	d.base, d.corrupt, d.fid = base, f.Corrupt, f.ID
	ts[words], fns[words] = now+(arb+float64(words)*dmaWordTimeS), d.run
	c.s.Chain(ts, fns)
}

// Stats reports frames transmitted and stored.
func (c *refCOMCO) Stats() (tx, rx uint64) { return c.txFrames, c.rxFrames }
