// Package kernel models the node software stack of paper §4 / Fig. 9:
// a pSOS⁺ᵐ-style real-time kernel add-on whose COMCO driver serves the
// Clock Interface (CI) of the synchronization algorithm. CSPs sent and
// received via the CI are timestamped by the NTI hardware. The paper's
// other two interfaces, the Kernel Interface (KI) for remote kernel
// objects and the Network Interface (NI) for TCP/IP-style traffic, are
// not modelled: frames of their wire kinds are recognised on reception
// and never reach the CI. The medium's background load stands in for the
// traffic they would add.
//
// The reception path reproduces the two-stage ISR structure the NTI's
// Receive Header Base register exists for (paper §3.4 + footnote 4):
// the RECEIVE-transition ISR moves the sampled stamp from the UTCSU
// register into the unused tail of the correct receive header before the
// next CSP can overwrite the register; the frame-stored ISR then hands
// the completed header to the CI task level.
package kernel

import (
	"encoding/binary"
	"fmt"

	"ntisim/internal/comco"
	"ntisim/internal/cpu"
	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
	"ntisim/internal/utcsu"
)

// TimestampMode selects where CSPs are timestamped — the three classes
// compared in experiment E2.
type TimestampMode int

const (
	// ModeNTI uses the hardware triggers: transmit stamps are inserted
	// on the fly by the NTI; receive stamps come from the RECEIVE SSU.
	ModeNTI TimestampMode = iota
	// ModeISR timestamps in software at interrupt level: transmit at
	// driver entry (before medium access!), receive in the frame ISR.
	ModeISR
	// ModeTask timestamps in software at task level: transmit when the
	// CSP is assembled, receive when the CI task processes it — the
	// purely software-based approach (steps 1 and 7 of §3.1).
	ModeTask
)

func (m TimestampMode) String() string {
	switch m {
	case ModeNTI:
		return "NTI"
	case ModeISR:
		return "ISR"
	case ModeTask:
		return "Task"
	}
	return fmt.Sprintf("TimestampMode(%d)", int(m))
}

// Config assembles a node's software stack. The node's CPU is the
// MVME-162 model of internal/cpu.
type Config struct {
	Mode TimestampMode
	// UseRxBaseLatch selects whether the stamp-move ISR uses the NTI's
	// Receive Header Base register (true, the paper's design) or guesses
	// the header from its software ring pointer (false: the unreliable
	// alternative footnote 4 warns about). Only meaningful in ModeNTI.
	UseRxBaseLatch bool
}

// Arrival is what the CI delivers to the synchronization algorithm.
type Arrival struct {
	Pkt csp.Packet
	// RxStamp is the receive time/accuracy stamp according to the
	// configured TimestampMode. StampOK is false when the hardware stamp
	// could not be attributed to this packet (overrun without latch).
	RxStamp  timefmt.Stamp
	RxAlphaM timefmt.Alpha
	RxAlphaP timefmt.Alpha
	StampOK  bool
	// At is the simulation time of CI delivery (diagnostics only).
	At float64
}

// Node is one complete station: CPU + UTCSU + NTI + COMCO(s) + driver.
// Ordinary nodes have one network channel; gateway nodes in a
// WANs-of-LANs topology (paper footnote 2) attach further segments via
// AttachSegment, each wired to its own SSU pair of the same UTCSU.
type Node struct {
	ID  uint16
	Sim *sim.Simulator
	CPU *cpu.CPU

	U     *utcsu.UTCSU
	NTI   *nti.NTI
	COMCO *comco.COMCO // channel 0, kept for the common single-LAN case

	chans []*nodeChannel

	cfg Config
	seq uint16

	ciHandler func(Arrival)

	// rxMeta holds the per-header sampled accuracies and validity, the
	// kernel-private part of the stamp-move bookkeeping (conceptually in
	// the NTI's System Structures section).
	rxMeta map[uint32]rxMetaEntry

	overruns     uint64
	ciDelivered  uint64
	rttResponder bool

	// stampMoveFn caches the stampMoveISR method value: moduleISR runs
	// once per received frame, and a fresh bound-method closure per
	// interrupt was the largest allocation site of a campaign run.
	stampMoveFn func()

	// freeJobs is the free list of pooled rxJob records (see rxJob):
	// after the pool warms up, frame reception allocates neither ISR nor
	// task closures.
	freeJobs *rxJob

	tr *trace.Tracer
}

type rxMetaEntry struct {
	alphaM, alphaP timefmt.Alpha
	valid          bool
}

// nodeChannel is the driver state of one network channel.
type nodeChannel struct {
	comco  *comco.COMCO
	txNext int
	// rxGuessSlot is the receive-header slot the kernel *believes* the
	// next RECEIVE trigger belongs to — the software ring pointer used
	// when the Receive Header Base latch is disabled (footnote 4).
	rxGuessSlot int
	lastMoveSeq uint64
}

// NewNode wires a node together and installs its interrupt plumbing.
// The node and its COMCOs trace through the simulator's tracer: the node
// emits csp-send, latch-read and csp-arrival records.
func NewNode(s *sim.Simulator, id uint16, u *utcsu.UTCSU, med network.Bus, cfg Config) *Node {
	n := &Node{
		ID:     id,
		Sim:    s,
		CPU:    cpu.New(s, fmt.Sprintf("n%d", id)),
		U:      u,
		cfg:    cfg,
		rxMeta: make(map[uint32]rxMetaEntry),
		tr:     s.Tracer(),
	}
	n.NTI = nti.New(u)
	n.stampMoveFn = n.stampMoveISR
	n.NTI.OnInterrupt(n.moduleISR)
	n.NTI.EnableInts()
	n.AttachSegment(med)
	n.COMCO = n.chans[0].comco
	return n
}

// AttachSegment wires the node to an additional LAN segment through the
// NTI's next free channel (its own SSU pair and header partitions) and
// returns the channel index. Gateway nodes in a WANs-of-LANs topology
// call this once per extra segment.
func (n *Node) AttachSegment(med network.Bus) int {
	ch := len(n.chans)
	if ch >= nti.NumChannels {
		panic("kernel: no free NTI channel for another segment")
	}
	nc := &nodeChannel{
		comco: comco.NewChannel(n.Sim, n.NTI, med, fmt.Sprintf("n%d.%d", n.ID, ch), ch, int(n.ID)),
	}
	n.chans = append(n.chans, nc)
	nc.comco.OnRxStored(func(fid uint64, base uint32, _ int, corrupt bool) {
		n.frameStored(ch, fid, base, corrupt)
	})
	if n.cfg.Mode == ModeNTI {
		// Arm the RECEIVE transition interrupt that drives the
		// stamp-move ISR.
		n.U.SSU(2*ch + 1).EnableInterrupt(true)
	}
	return ch
}

// Channels reports the number of attached segments.
func (n *Node) Channels() int { return len(n.chans) }

// Station returns the node's medium station id.
func (n *Node) Station() int { return n.COMCO.Station() }

// OnCSP installs the CI handler.
func (n *Node) OnCSP(fn func(Arrival)) { n.ciHandler = fn }

// EnableRTTResponder makes the node echo KindRTTReq probes at ISR level.
func (n *Node) EnableRTTResponder() { n.rttResponder = true }

// Overruns reports receive-stamp overruns detected by the stamp-move ISR.
func (n *Node) Overruns() uint64 { return n.overruns }

// CIDelivered reports packets handed to the CI handler.
func (n *Node) CIDelivered() uint64 { return n.ciDelivered }

// SendCSP transmits a clock synchronization packet. In ModeNTI the
// transmit stamp fields are filled in flight by the hardware; in the
// software modes they are filled here, before the frame ever contends
// for the medium — which is precisely their handicap.
// A broadcast goes out on every attached segment (gateway nodes relay
// their interval to both LANs, each transmission hardware-stamped on
// its own channel); a unicast uses channel 0.
func (n *Node) SendCSP(p csp.Packet, dst int) {
	if dst == network.Broadcast {
		for ch := range n.chans {
			n.sendCSPOn(ch, p, dst)
		}
		return
	}
	n.sendCSPOn(0, p, dst)
}

func (n *Node) sendCSPOn(ch int, p csp.Packet, dst int) {
	p.Node = n.ID
	n.seq++
	p.Seq = n.seq
	nc := n.chans[ch]
	var fid uint64
	switch n.cfg.Mode {
	case ModeNTI:
		slot := nc.txNext
		nc.txNext = (nc.txNext + 1) % nti.TxHeadersPerCh
		n.NTI.CPUWrite(nti.TxHeaderAddrCh(ch, slot), p.Encode())
		fid = nc.comco.Transmit(slot, nil, dst)
	default:
		st := n.U.Now()
		am, ap := n.U.Alpha()
		p.SetTxStamp(st)
		p.TxAlphaM, p.TxAlphaP = am, ap
		fid = nc.comco.TransmitRaw(p.Encode(), dst)
	}
	if n.tr != nil {
		n.tr.Emit(trace.KindCSPSend, n.Sim.Now(), int(n.ID), ch, fid, uint64(p.Round), 0)
	}
}

// moduleISR is the first-level handler for the NTI's vectorized
// interrupt. A RECEIVE transition (INTN) dispatches the stamp-move ISR.
func (n *Node) moduleISR(vector uint8) {
	if vector&nti.VecINTN != 0 && n.cfg.Mode == ModeNTI {
		n.CPU.RunISR(n.stampMoveFn)
		return
	}
	// Timer/application interrupts re-enable immediately: duty-timer
	// callbacks are delivered by the UTCSU model itself.
	n.NTI.EnableInts()
}

// stampMoveISR moves the sampled receive stamp from the UTCSU registers
// into the RxSave field of the owning receive header — "an unused
// portion of the receive buffer" (paper §3.1) — before the next CSP can
// overwrite the register. The sampled accuracies go to a driver table in
// the System Structures section.
// The single INTN line does not encode the channel, so the ISR scans
// every channel's sample unit and consumes whatever is new.
func (n *Node) stampMoveISR() {
	for ch, nc := range n.chans {
		stamp, am, ap, latchedBase, seq := n.NTI.ReadRxSampleCh(ch)
		if seq == nc.lastMoveSeq {
			continue // no new sample on this channel
		}
		if seq != nc.lastMoveSeq+1 {
			// A further trigger fired before this ISR ran: the register
			// now belongs to a newer CSP; earlier stamps are gone.
			n.overruns += seq - nc.lastMoveSeq - 1
		}
		nc.lastMoveSeq = seq
		base := latchedBase
		if !n.cfg.UseRxBaseLatch {
			// Footnote-4 alternative: guess the header from the software
			// ring pointer. Whenever the ISR was delayed past the next
			// frame's trigger, the guess attributes the stamp to the
			// wrong packet.
			base = nti.RxHeaderAddrCh(ch, nc.rxGuessSlot)
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(stamp))
		n.NTI.CPUWrite(base+csp.OffRxSave, buf[:])
		n.rxMeta[base] = rxMetaEntry{alphaM: am, alphaP: ap, valid: true}
		if n.tr != nil {
			n.tr.Emit(trace.KindLatchRead, n.Sim.Now(), int(n.ID), ch, seq, uint64(base), stamp.Seconds())
		}
	}
	n.NTI.EnableInts()
}

// rxSaveRead pulls the stamp the stamp-move ISR deposited in a header.
// A valid entry is consumed so a reused slot cannot leak a stale stamp;
// an invalid read leaves the slot alone (the mover may still be pending
// and the caller may retry).
func (n *Node) rxSaveRead(base uint32) (timefmt.Stamp, timefmt.Alpha, timefmt.Alpha, bool) {
	meta := n.rxMeta[base]
	if !meta.valid {
		return 0, 0, 0, false
	}
	delete(n.rxMeta, base)
	var buf [8]byte
	n.NTI.CPURead(base+csp.OffRxSave, buf[:])
	st := timefmt.Stamp(binary.BigEndian.Uint64(buf[:]))
	return st, meta.alphaM, meta.alphaP, true
}

// rxJob carries one received frame from the frame-stored ISR to CI task
// level. Receptions overlap (the ISR runs ~12 µs after storage, the CI
// task hundreds of µs later, and every peer broadcasts each round), so
// jobs live on a per-node free list with their ISR and task entry
// points bound once at allocation: after warm-up, frame reception
// allocates nothing. The
// per-frame delivery closures this replaces were the top remaining
// allocation site after the stamp-move ISR was cached.
type rxJob struct {
	n          *Node
	ch         int
	slot       int
	attempt    int
	fid        uint64
	headerBase uint32
	corrupt    bool
	pkt        csp.Packet
	isrStamp   timefmt.Stamp
	isrAM      timefmt.Alpha
	isrAP      timefmt.Alpha
	isrFn      func()
	taskFn     func()
	next       *rxJob
}

func (n *Node) getJob() *rxJob {
	j := n.freeJobs
	if j == nil {
		j = &rxJob{n: n}
		j.isrFn = j.runISR
		j.taskFn = j.runTask
		return j
	}
	n.freeJobs = j.next
	j.next = nil
	return j
}

func (n *Node) putJob(j *rxJob) {
	j.pkt = csp.Packet{}
	j.next = n.freeJobs
	n.freeJobs = j
}

// frameStored is the COMCO's reception-complete callback: it runs the
// frame ISR on the CPU, then hands CSPs to the CI at task level.
func (n *Node) frameStored(ch int, fid uint64, headerBase uint32, corrupt bool) {
	slot := int(headerBase-nti.RxHeaderAddrCh(ch, 0)) / nti.HeaderSize
	// The kernel's software ring pointer: the *next* trigger should
	// belong to the slot after this one (the no-latch guess).
	n.chans[ch].rxGuessSlot = (slot + 1) % nti.RxHeadersPerCh
	j := n.getJob()
	j.ch, j.slot, j.attempt = ch, slot, 0
	j.fid, j.headerBase, j.corrupt = fid, headerBase, corrupt
	n.CPU.RunISR(j.isrFn)
}

// runISR is the frame ISR body (the same operation order as the closure
// it replaced — CPURead costs are part of the timing model).
func (j *rxJob) runISR() {
	n := j.n
	j.isrStamp = n.U.Now()
	j.isrAM, j.isrAP = n.U.Alpha()
	var hdr [nti.HeaderSize]byte
	n.NTI.CPURead(j.headerBase, hdr[:])
	if j.corrupt {
		// CRC failure: discard. In ModeNTI the RECEIVE trigger fired
		// anyway; the stamp-move ISR already consumed the sample, so
		// nothing is left dangling (this is why a sequential-order
		// scheme breaks, footnote 4).
		n.putJob(j)
		return
	}
	pkt, err := csp.Decode(hdr[:])
	if err != nil {
		n.putJob(j)
		return
	}
	j.pkt = pkt
	n.CPU.RunTask(j.taskFn)
}

// runTask is the CI task entry: it dispatches and then releases the job
// (dispatch signals a pending retry by bumping j.attempt and re-queuing
// j.taskFn, in which case the job stays live).
func (j *rxJob) runTask() {
	if j.n.dispatch(j) {
		j.n.putJob(j)
	}
}

// dispatch runs at CI task level. In ModeNTI it consumes the hardware
// stamp the stamp-move ISR deposited; if the mover lost the race against
// task dispatch it retries once before declaring the stamp lost (a real
// driver polls the validity marker the same way — the hardware register
// alone cannot be trusted once further CSPs may have arrived). It
// reports whether the job is finished (false = retry queued).
func (n *Node) dispatch(j *rxJob) bool {
	pkt := j.pkt
	var hwStamp timefmt.Stamp
	var hwAM, hwAP timefmt.Alpha
	hwOK := false
	if n.cfg.Mode == ModeNTI {
		hwStamp, hwAM, hwAP, hwOK = n.rxSaveRead(j.headerBase)
		if !hwOK && j.attempt < 2 {
			j.attempt++
			n.CPU.RunTask(j.taskFn)
			return false
		}
	}
	if n.rttResponder && pkt.Kind == csp.KindRTTReq {
		if n.cfg.Mode == ModeNTI && hwOK {
			n.respondRTT(pkt, hwStamp)
		}
		return true
	}
	if pkt.Kind == csp.KindKernel || pkt.Kind == csp.KindNet {
		return true // KI/NI traffic is not the CI's
	}
	if n.ciHandler == nil {
		return true
	}
	a := Arrival{Pkt: pkt, At: n.Sim.Now()}
	switch n.cfg.Mode {
	case ModeNTI:
		a.RxStamp, a.RxAlphaM, a.RxAlphaP, a.StampOK = hwStamp, hwAM, hwAP, hwOK
	case ModeISR:
		a.RxStamp, a.RxAlphaM, a.RxAlphaP, a.StampOK = j.isrStamp, j.isrAM, j.isrAP, true
	case ModeTask:
		a.RxStamp = n.U.Now()
		a.RxAlphaM, a.RxAlphaP = n.U.Alpha()
		a.StampOK = true
	}
	n.ciDelivered++
	if n.tr != nil {
		v := 0.0
		if a.StampOK {
			v = a.RxStamp.Seconds()
		}
		n.tr.Emit(trace.KindCSPArrival, n.Sim.Now(), int(n.ID), j.ch, j.fid, uint64(pkt.Round), v)
	}
	n.ciHandler(a)
	return true
}

// respondRTT echoes a round-trip probe at ISR level: the response
// carries the probe's hardware transmit stamp and this node's hardware
// receive stamp of the probe; the response's own transmit stamp is again
// inserted by the NTI in flight.
func (n *Node) respondRTT(req csp.Packet, rxStamp timefmt.Stamp) {
	reqTx, ok := req.TxStamp()
	if !ok {
		return
	}
	resp := csp.Packet{
		Kind:      csp.KindRTTResp,
		Dest:      req.Node,
		Round:     req.Round,
		EchoReqTx: reqTx,
		EchoReqRx: rxStamp,
	}
	// Nodes attach in id order, so a node's id is its station.
	n.SendCSP(resp, int(req.Node))
}
