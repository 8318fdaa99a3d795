// Dedicated point-to-point WAN links for the sharded WANs-of-LANs
// topology (paper footnote 2; DESIGN.md §8).
//
// A gateway node lives entirely on its home shard; its second COMCO
// channel attaches not to the remote segment's Medium (which belongs
// to another shard's simulator) but to a LinkPort: the near end of a
// dedicated full-duplex store-and-forward link. The far end is a
// Relay, an ordinary Station on the remote Medium. The wire between
// them is abstract — the cluster layer carries frames across as
// timestamped cross-shard posts delayed by the WAN propagation delay,
// which is exactly the Group's conservative lookahead.
//
//	gateway COMCO ch1 ── LinkPort ──(cross-shard, +D)── Relay ── remote Medium
//
// The link is deliberately simple compared to Medium: FIFO per
// direction, deterministic acquisition (no contention jitter — the
// line is dedicated), no CRC errors (WAN framing is modeled
// error-free; LAN-side CRC draws still happen on each Medium).
// Corrupt flags picked up on the remote LAN ride through unchanged.
//
// Because a relayed frame spends extra true time in flight (link
// serialization + WAN propagation), its embedded CSP transmit
// timestamp would violate the LAN-scale [DelayMin, DelayMax] bounds
// the receivers compensate with. Both directions therefore apply a
// RewriteFunc at the final acquisition — the moment the last hop
// toward the ultimate receivers starts serializing — with the true
// time elapsed since the frame's original acquisition. The cluster
// layer uses it to advance the embedded transmit stamp and widen its
// accuracy field (a PTP-transparent-clock-style correction; see
// cluster.relayRewrite for the error argument).
package network

import (
	"fmt"

	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
)

// RewriteFunc edits a relayed frame's payload in place at its final
// acquisition, elapsedS true seconds after the frame's original
// medium acquisition. The payload is a private copy owned by the
// relayed frame, never shared with the originating shard.
type RewriteFunc func(payload []byte, elapsedS float64)

// LinkPort is the home-shard end of a dedicated WAN link. It
// implements Bus for exactly one attached station (the gateway's
// second COMCO channel): Send serializes uplink frames FIFO and hands
// them to the forward callback at serialization end; Inject (invoked
// by the cluster when a far-side frame crosses the shard boundary)
// serializes downlink frames FIFO and delivers them to the station.
type LinkPort struct {
	s       *sim.Simulator
	cfg     MediumConfig
	st      Station
	forward func(f Frame)
	rewrite RewriteFunc

	txBusyUntil float64
	rxBusyUntil float64
	nextID      uint64

	tmTx *telemetry.Counter
	tmRx *telemetry.Counter
}

// NewLinkPort creates the home end of a link on the home shard's
// simulator. The link runs at the bit rate, preamble and interframe
// gap of cfg, with NewMedium's defaults; the other fields of cfg do not
// apply to a dedicated line. forward receives each uplink frame
// (payload already a private copy, AcquiredAt set to the uplink
// serialization start) at serialization end; the cluster posts it
// across the shard boundary.
// The port counts uplink frames forwarded and downlink frames delivered
// on the simulator's registry.
func NewLinkPort(s *sim.Simulator, cfg MediumConfig, forward func(f Frame), rewrite RewriteFunc) *LinkPort {
	if forward == nil {
		panic("network: LinkPort needs a forward callback")
	}
	return &LinkPort{
		s: s, cfg: cfg.withDefaults(), forward: forward, rewrite: rewrite,
		tmTx: s.Telemetry().Counter("net.wan_tx"),
		tmRx: s.Telemetry().Counter("net.wan_rx"),
	}
}

// Attach registers the single served station. The returned id is
// always 0: a point-to-point line has one endpoint per side.
func (p *LinkPort) Attach(st Station) int {
	if p.st != nil {
		panic("network: LinkPort already has its station attached")
	}
	p.st = st
	return 0
}

// Bitrate returns the link bit rate (Bus interface; the COMCO paces
// its DMA reads with it).
func (p *LinkPort) Bitrate() float64 { return p.cfg.BitRateBps }

// FrameDuration returns the serialization time of n payload bytes.
func (p *LinkPort) FrameDuration(n int) float64 { return p.cfg.frameDuration(n) }

// Send queues an uplink frame (Bus interface). Acquisition is
// deterministic: the line is dedicated, so the frame starts after the
// interframe gap as soon as the transmitter is free. onAcquired fires
// at serialization start, exactly as on Medium, so the COMCO's timed
// DMA reads — and the NTI's in-flight transmit timestamping — behave
// identically on both bus kinds.
func (p *LinkPort) Send(f Frame, onAcquired func(at float64)) uint64 {
	p.nextID++
	f.ID = p.nextID
	f.RequestedAt = p.s.Now()
	start := p.s.Now()
	if p.txBusyUntil > start {
		start = p.txBusyUntil
	}
	start += p.cfg.InterframeS
	end := start + p.FrameDuration(len(f.Payload))
	p.txBusyUntil = end
	if onAcquired != nil {
		p.s.At(start, func() { onAcquired(start) })
	}
	p.s.At(end, func() {
		f.AcquiredAt = start
		// Copy after serialization completes: the COMCO's DMA reads have
		// finished stamping the header by then, and the copy unshares
		// the payload from the sender before it crosses shards.
		f.Payload = append([]byte(nil), f.Payload...)
		p.tmTx.Inc()
		p.forward(f)
	})
	return f.ID
}

// Inject delivers a far-side frame to the attached station: called on
// the home shard (via a cross-shard post) when a frame forwarded by
// the Relay arrives over the WAN. The frame is serialized FIFO onto
// the port's downlink, its payload rewritten at acquisition, and
// handed to the station at the last bit.
func (p *LinkPort) Inject(f Frame) {
	if p.st == nil {
		panic("network: LinkPort.Inject with no station attached")
	}
	start := p.s.Now()
	if p.rxBusyUntil > start {
		start = p.rxBusyUntil
	}
	start += p.cfg.InterframeS
	end := start + p.FrameDuration(len(f.Payload))
	p.rxBusyUntil = end
	p.s.At(end, func() {
		if p.rewrite != nil {
			p.rewrite(f.Payload, start-f.AcquiredAt)
		}
		f.AcquiredAt = start
		f.DeliveredAt = end
		p.tmRx.Inc()
		p.st.FrameArrived(f)
	})
}

// Relay is the far end of a LinkPort: an ordinary station on the
// remote segment's Medium. Broadcast frames it hears are copied and
// handed to forward (the cluster posts them to LinkPort.Inject across
// the shard boundary); frames from the far gateway are re-broadcast
// onto the medium via Inject, rewritten at acquisition.
//
// Only relays forward and every forwarded frame carries the relay's
// own station id as source, so relayed traffic can never loop: the
// medium never delivers a frame back to its sender, and nothing else
// on a segment re-forwards.
type Relay struct {
	med     *Medium
	id      int
	forward func(f Frame)
	rewrite RewriteFunc
	tmFwd   *telemetry.Counter
}

// NewRelay attaches a relay to the remote medium. It counts remote-LAN
// frames captured for the far gateway on the medium's simulator registry.
func NewRelay(med *Medium, forward func(f Frame), rewrite RewriteFunc) *Relay {
	if forward == nil {
		panic("network: Relay needs a forward callback")
	}
	r := &Relay{med: med, forward: forward, rewrite: rewrite, tmFwd: med.s.Telemetry().Counter("net.relay_fwd")}
	r.id = med.Attach(r)
	return r
}

// FrameArrived captures one remote-LAN frame for the far gateway
// (Station interface). The payload is copied here, on the remote
// shard, so the cross-shard post owns it exclusively.
func (r *Relay) FrameArrived(f Frame) {
	f.Payload = append([]byte(nil), f.Payload...)
	r.tmFwd.Inc()
	r.forward(f)
}

// Inject re-broadcasts a frame from the far gateway onto the local
// medium: normal FIFO arbitration, jitter, CRC and delivery fan-out
// apply, so to every local receiver the relayed CSP is
// indistinguishable from a locally transmitted one (modulo the
// rewritten stamp). Must run on the medium's own shard.
func (r *Relay) Inject(f Frame) {
	origAcquired := f.AcquiredAt
	payload := f.Payload
	r.med.Send(Frame{Src: r.id, Dst: f.Dst, Payload: payload}, func(at float64) {
		if r.rewrite != nil {
			r.rewrite(payload, at-origAcquired)
		}
	})
}

// String implements fmt.Stringer for diagnostics.
func (r *Relay) String() string { return fmt.Sprintf("relay(station %d)", r.id) }
