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
package comco

import (
	"encoding/binary"

	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/sim"
	"ntisim/internal/trace"
)

// Config describes the controller's DMA timing.
type Config struct {
	DMAWordTimeS float64 // per 32-bit word bus transfer; default 400 ns
	TxFIFOBytes  int     // prefetch FIFO depth; default 32
	// Bus arbitration before a DMA burst: uniform in [Min, Max].
	ArbMinS float64 // default 200 ns
	ArbMaxS float64 // default 1.5 µs
}

// Default82596 returns timings representative of the 82596CA on a VME
// carrier.
func Default82596() Config {
	return Config{
		DMAWordTimeS: 400e-9,
		TxFIFOBytes:  32,
		ArbMinS:      100e-9,
		ArbMaxS:      400e-9,
	}
}

// COMCO is one controller instance attached to a medium and an NTI.
type COMCO struct {
	s       *sim.Simulator
	nti     *nti.NTI
	med     network.Bus
	cfg     Config
	rng     *sim.RNG
	station int
	channel int

	rxNext     int
	onRxStored func(fid uint64, headerBase uint32, length int, corrupt bool)

	txFrames uint64
	rxFrames uint64

	// tr is the simulator's tracer (nil when off); trNode is the node id
	// records are attributed to (the kernel's global node id — may differ
	// from the medium-local station id on gateway nodes). trWords caches
	// Options.DMAWords so the per-word hot path is one flag test.
	tr      *trace.Tracer
	trNode  int
	trWords bool

	// Pools for the per-word DMA transfers and the per-frame completion
	// notification. Every received frame used to allocate one closure
	// per header/data word (16+ per frame per receiver); pooled jobs
	// with a prebuilt callback make the steady-state DMA timing model
	// allocation-free without changing event times or counts.
	freeJobs []*dmaJob
	freeDone []*rxDone
}

// dmaJob is one pooled timed 32-bit DMA transfer: a read through the
// NTI's decode logic into a transmit frame (tx), or a write of a
// received word into NTI memory (rx).
type dmaJob struct {
	c    *COMCO
	addr uint32
	val  uint32 // rx: word to deposit
	buf  []byte // tx: frame payload the read lands in
	off  int
	fid  uint64 // frame trace id (flow key)
	tx   bool
	trig bool // this word is the TRANSMIT/RECEIVE trigger access
	run  func()
}

func (j *dmaJob) fire() {
	c := j.c
	tx, addr, buf, off, val := j.tx, j.addr, j.buf, j.off, j.val
	fid, trig := j.fid, j.trig
	j.buf = nil
	c.freeJobs = append(c.freeJobs, j) // release first: the access below may schedule more DMA
	if tx {
		binary.BigEndian.PutUint32(buf[off:], c.nti.COMCORead32(addr))
	} else {
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

func (c *COMCO) allocJob() *dmaJob {
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
	c       *COMCO
	base    uint32
	length  int
	fid     uint64
	corrupt bool
	run     func()
}

func (d *rxDone) fire() {
	c := d.c
	base, length, corrupt, fid := d.base, d.length, d.corrupt, d.fid
	c.freeDone = append(c.freeDone, d)
	c.rxFrames++
	if c.tr != nil {
		c.tr.Emit(trace.KindRxDone, c.s.Now(), c.trNode, c.channel, fid, uint64(base), 0)
	}
	if c.onRxStored != nil {
		c.onRxStored(fid, base, length, corrupt)
	}
}

func (c *COMCO) allocDone() *rxDone {
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

// NewChannel creates a controller on an NTI channel, attaching it to the
// medium as a station — gateway nodes run one controller per attached
// LAN segment, each wired to its own SSU pair (paper §3.3). The
// controller traces through the simulator's tracer, attributing its
// records to node id `node`: tx-trigger, rx-trigger, rx-done and — when
// the tracer asks for them — every timed DMA word.
func NewChannel(s *sim.Simulator, module *nti.NTI, med network.Bus, cfg Config, label string, channel, node int) *COMCO {
	if cfg.DMAWordTimeS <= 0 {
		cfg.DMAWordTimeS = 400e-9
	}
	if cfg.TxFIFOBytes <= 0 {
		cfg.TxFIFOBytes = 32
	}
	if cfg.ArbMaxS < cfg.ArbMinS {
		cfg.ArbMaxS = cfg.ArbMinS
	}
	c := &COMCO{
		s: s, nti: module, med: med, cfg: cfg, rng: s.RNG("comco/" + label), channel: channel,
		tr: s.Tracer(), trNode: node, trWords: s.Tracer().Options().DMAWords,
	}
	c.station = med.Attach(c)
	return c
}

// Channel returns the NTI channel this controller is wired to.
func (c *COMCO) Channel() int { return c.channel }

// Station returns the controller's station id on the medium.
func (c *COMCO) Station() int { return c.station }

// OnRxStored installs the frame-reception callback: it fires when the
// last header word has been deposited in NTI memory, i.e. at the moment
// the real chip would raise its reception interrupt. fid is the frame's
// medium-assigned trace id; corrupt reports a CRC failure — the frame
// was still DMA'd (and the RECEIVE trigger fired! paper footnote 4) but
// must be discarded by software.
func (c *COMCO) OnRxStored(fn func(fid uint64, headerBase uint32, length int, corrupt bool)) {
	c.onRxStored = fn
}

// Transmit queues the CSP image residing in transmit header slot
// headerIdx (64 bytes, already written by the CPU) for transmission,
// with extra payload bytes appended verbatim. The frame's header bytes
// are produced by timed DMA reads through the NTI's decode logic, so the
// TRANSMIT trigger fires and the stamp words are inserted on the fly.
// It returns the frame's medium-assigned trace id.
func (c *COMCO) Transmit(headerIdx int, extra []byte, dst int) uint64 {
	base := nti.TxHeaderAddrCh(c.channel, headerIdx)
	payload := make([]byte, nti.HeaderSize+len(extra))
	copy(payload[nti.HeaderSize:], extra)
	f := network.Frame{Src: c.station, Dst: dst, Payload: payload}
	var fid uint64
	fid = c.med.Send(f, func(at float64) { c.fetchHeader(fid, base, payload, at) })
	c.txFrames++
	return fid
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
	fid := c.med.Send(network.Frame{Src: c.station, Dst: dst, Payload: buf}, nil)
	c.txFrames++
	return fid
}

// fetchHeader schedules the DMA reads that fill the frame's header bytes
// while serialization is under way. Word w is read either during the
// initial FIFO prefill (back-to-back at DMA speed) or, once the FIFO is
// primed, paced by the wire draining it.
func (c *COMCO) fetchHeader(fid uint64, base uint32, payload []byte, acquiredAt float64) {
	arb := c.rng.Uniform(c.cfg.ArbMinS, c.cfg.ArbMaxS)
	preamble := 64 / c.med.Bitrate() // preamble bits on the wire
	for w := 0; w < nti.HeaderSize/4; w++ {
		off := uint32(4 * w)
		var t float64
		if int(off) < c.cfg.TxFIFOBytes {
			t = acquiredAt + arb + float64(w)*c.cfg.DMAWordTimeS
		} else {
			drained := float64(int(off)-c.cfg.TxFIFOBytes) * 8 / c.med.Bitrate()
			t = acquiredAt + arb + preamble + drained
		}
		j := c.allocJob()
		j.tx = true
		j.addr = base + off
		j.buf = payload
		j.off = int(off)
		j.fid = fid
		j.trig = off == csp.OffTxTrig
		c.s.At(t, j.run)
	}
}

// FrameArrived implements network.Station: the controller DMAs the
// received header into the next receive-header slot, word by word,
// behind a bus-arbitration delay. The write of the RxTrigOffset word
// raises RECEIVE in the NTI.
func (c *COMCO) FrameArrived(f network.Frame) {
	if len(f.Payload) < nti.HeaderSize {
		return // runt or background frame: no CSP header to store
	}
	slot := c.rxNext
	c.rxNext = (c.rxNext + 1) % nti.RxHeadersPerCh
	base := nti.RxHeaderAddrCh(c.channel, slot)
	arb := c.rng.Uniform(c.cfg.ArbMinS, c.cfg.ArbMaxS)
	words := nti.HeaderSize / 4
	for w := 0; w < words; w++ {
		j := c.allocJob()
		j.tx = false
		j.addr = base + uint32(4*w)
		j.val = binary.BigEndian.Uint32(f.Payload[4*w:])
		j.fid = f.ID
		j.trig = uint32(4*w) == csp.RxTrigOffset
		c.s.After(arb+float64(w)*c.cfg.DMAWordTimeS, j.run)
	}
	// Payload beyond the header lands in the paired data-buffer slot
	// (truncated to the slot size, like a real descriptor chain would
	// continue — CSPs never need more).
	extra := f.Payload[nti.HeaderSize:]
	if len(extra) > nti.DataSlotSize {
		extra = extra[:nti.DataSlotSize]
	}
	if len(extra) > 0 {
		dataBase := nti.DataSlotAddr(c.channel, slot)
		nw := (len(extra) + 3) / 4
		for w := 0; w < nw; w++ {
			j := c.allocJob()
			j.tx = false
			j.addr = dataBase + uint32(4*w)
			j.fid = f.ID
			j.trig = false
			if rest := extra[4*w:]; len(rest) >= 4 {
				j.val = binary.BigEndian.Uint32(rest)
			} else {
				var tail [4]byte // final partial word, zero-padded
				copy(tail[:], rest)
				j.val = binary.BigEndian.Uint32(tail[:])
			}
			c.s.After(arb+float64(words+w)*c.cfg.DMAWordTimeS, j.run)
		}
		words += nw
	}
	d := c.allocDone()
	d.base, d.length, d.corrupt, d.fid = base, len(f.Payload), f.Corrupt, f.ID
	c.s.After(arb+float64(words)*c.cfg.DMAWordTimeS, d.run)
}

// Stats reports frames transmitted and stored.
func (c *COMCO) Stats() (tx, rx uint64) { return c.txFrames, c.rxFrames }
