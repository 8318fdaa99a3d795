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

	"ntisim/internal/telemetry"
)

// RewriteFunc edits a relayed frame's payload in place at its final
// acquisition, elapsedS true seconds after the frame's original
// medium acquisition. The payload is a private copy owned by the
// relayed frame, never shared with the originating shard.
type RewriteFunc func(payload []byte, elapsedS float64)

// ForwardFunc hands a frame that crossed a link end to the cluster,
// which carries it to the far end. The payload is a pooled private
// copy, lent under the package's ownership rule: done gives it back
// and must be passed on with it, to Inject at the far end.
type ForwardFunc func(f Frame, done func())

// payloadCopy is one pooled private copy of a payload, made where a
// frame crosses between segments so that no two shards share bytes.
// release, bound once, is the done hook the copy travels with; it may
// run on the far shard, which is safe because a sim.Group runs its
// shards in turn on one goroutine.
type payloadCopy struct {
	free    *[]*payloadCopy
	buf     []byte
	release func()
}

// copyPayload copies b into a buffer from the free list.
func copyPayload(free *[]*payloadCopy, b []byte) *payloadCopy {
	c := pop(free)
	if c == nil {
		c = &payloadCopy{free: free}
		c.release = c.put
	}
	c.buf = append(c.buf[:0], b...)
	return c
}

func (c *payloadCopy) put() { *c.free = append(*c.free, c) }

// LinkPort is the home-shard end of a dedicated WAN link. It
// implements Bus for exactly one attached station (the gateway's
// second COMCO channel): Lend serializes uplink frames FIFO and hands
// them to the forward callback at serialization end; Inject (invoked
// by the cluster when a far-side frame crosses the shard boundary)
// serializes downlink frames FIFO and delivers them to the station.
type LinkPort struct {
	home    *Medium // its simulator, link timing and frame ids
	st      Station
	forward ForwardFunc
	rewrite RewriteFunc

	txBusyUntil float64
	rxBusyUntil float64

	freeUp     []*uplink
	freeDown   []*downlink
	freeCopies []*payloadCopy

	tmTx *telemetry.Counter
	tmRx *telemetry.Counter
}

// uplink is one pooled frame serializing on the port's uplink (its
// AcquiredAt already set), with its acquisition and end events bound
// once.
type uplink struct {
	p          *LinkPort
	f          Frame
	onAcquired func(at float64)
	done       func()
	acquireFn  func()
	endFn      func()
}

func (u *uplink) acquire() { u.onAcquired(u.f.AcquiredAt) }

// end copies the serialized frame, hands the sender's payload back and
// forwards the copy.
func (u *uplink) end() {
	p, f, done := u.p, u.f, u.done
	u.f, u.onAcquired, u.done = Frame{}, nil, nil
	p.freeUp = append(p.freeUp, u)
	// Copy after serialization completes: the COMCO's DMA reads have
	// finished stamping the header by then, and the copy unshares the
	// payload from the sender before it crosses shards.
	c := copyPayload(&p.freeCopies, f.Payload)
	if done != nil {
		done()
	}
	f.Payload = c.buf
	p.tmTx.Inc()
	p.forward(f, c.release)
}

// downlink is one pooled far-side frame serializing on the port's
// downlink toward the station (its DeliveredAt already set; AcquiredAt
// is still the original acquisition the rewrite measures from).
type downlink struct {
	p     *LinkPort
	f     Frame
	start float64
	done  func()
	run   func()
}

func (d *downlink) deliver() {
	p, f, start, done := d.p, d.f, d.start, d.done
	d.f, d.done = Frame{}, nil
	p.freeDown = append(p.freeDown, d)
	if p.rewrite != nil {
		p.rewrite(f.Payload, start-f.AcquiredAt)
	}
	f.AcquiredAt = start
	p.tmRx.Inc()
	p.st.FrameArrived(f)
	if done != nil {
		done()
	}
}

// NewLinkPort creates the home end of a link beside the home segment's
// medium, on its simulator. The link runs at the medium's bit rate,
// preamble and interframe gap; the other fields of its config do not
// apply to a dedicated line. The port numbers every frame it carries,
// both ways, from the medium's trace ids, so frame ids stay unique
// within the home shard. forward receives each uplink frame (payload a
// pooled private copy, AcquiredAt set to the uplink serialization
// start) at serialization end; the cluster posts it across the shard
// boundary.
// The port counts uplink frames forwarded and downlink frames delivered
// on the simulator's registry.
func NewLinkPort(home *Medium, forward ForwardFunc, rewrite RewriteFunc) *LinkPort {
	if forward == nil {
		panic("network: LinkPort needs a forward callback")
	}
	return &LinkPort{
		home: home, forward: forward, rewrite: rewrite,
		tmTx: home.s.Telemetry().Counter("net.wan_tx"),
		tmRx: home.s.Telemetry().Counter("net.wan_rx"),
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
func (p *LinkPort) Bitrate() float64 { return p.home.Bitrate() }

// FrameDuration returns the serialization time of n payload bytes.
func (p *LinkPort) FrameDuration(n int) float64 { return p.home.FrameDuration(n) }

// Lend queues an uplink frame (Bus interface). Acquisition is
// deterministic: the line is dedicated, so the frame starts after the
// interframe gap as soon as the transmitter is free. onAcquired fires
// at serialization start, exactly as on Medium, so the COMCO's timed
// DMA reads — and the NTI's in-flight transmit timestamping — behave
// identically on both bus kinds. done fires at serialization end, once
// the payload is copied for the WAN.
func (p *LinkPort) Lend(f Frame, onAcquired func(at float64), done func()) uint64 {
	f.ID = p.home.newID()
	f.RequestedAt = p.home.s.Now()
	start := p.home.s.Now()
	if p.txBusyUntil > start {
		start = p.txBusyUntil
	}
	start += p.home.cfg.InterframeS
	end := start + p.FrameDuration(len(f.Payload))
	p.txBusyUntil = end
	u := pop(&p.freeUp)
	if u == nil {
		u = &uplink{p: p}
		u.acquireFn, u.endFn = u.acquire, u.end
	}
	f.AcquiredAt = start
	u.f, u.onAcquired, u.done = f, onAcquired, done
	if onAcquired != nil {
		p.home.s.At(start, u.acquireFn)
	}
	p.home.s.At(end, u.endFn)
	return f.ID
}

// Inject delivers a far-side frame to the attached station: called on
// the home shard (via a cross-shard post) when a frame forwarded by
// the Relay arrives over the WAN. The frame is serialized FIFO onto
// the port's downlink, its payload rewritten at acquisition, and
// handed to the station at the last bit; done, if non-nil, fires right
// after, when the port reads the payload no more.
func (p *LinkPort) Inject(f Frame, done func()) {
	if p.st == nil {
		panic("network: LinkPort.Inject with no station attached")
	}
	f.ID = p.home.newID() // the remote medium's id means nothing here
	start := p.home.s.Now()
	if p.rxBusyUntil > start {
		start = p.rxBusyUntil
	}
	start += p.home.cfg.InterframeS
	end := start + p.FrameDuration(len(f.Payload))
	p.rxBusyUntil = end
	d := pop(&p.freeDown)
	if d == nil {
		d = &downlink{p: p}
		d.run = d.deliver
	}
	f.DeliveredAt = end
	d.f, d.start, d.done = f, start, done
	p.home.s.At(end, d.run)
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
	med        *Medium
	id         int
	forward    ForwardFunc
	rewrite    RewriteFunc
	freeTx     []*relayed
	freeCopies []*payloadCopy
	tmFwd      *telemetry.Counter
}

// relayed is one pooled far-side frame re-broadcast on the relay's
// medium: its acquisition hook applies the rewrite, its done hook
// hands the payload back upstream.
type relayed struct {
	r            *Relay
	payload      []byte
	origAcquired float64
	done         func()
	acquiredFn   func(at float64)
	doneFn       func()
}

func (j *relayed) acquired(at float64) {
	if j.r.rewrite != nil {
		j.r.rewrite(j.payload, at-j.origAcquired)
	}
}

func (j *relayed) finish() {
	r, done := j.r, j.done
	j.payload, j.done = nil, nil
	r.freeTx = append(r.freeTx, j)
	if done != nil {
		done()
	}
}

// NewRelay attaches a relay to the remote medium. It counts remote-LAN
// frames captured for the far gateway on the medium's simulator registry.
func NewRelay(med *Medium, forward ForwardFunc, rewrite RewriteFunc) *Relay {
	if forward == nil {
		panic("network: Relay needs a forward callback")
	}
	r := &Relay{med: med, forward: forward, rewrite: rewrite, tmFwd: med.s.Telemetry().Counter("net.relay_fwd")}
	r.id = med.Attach(r)
	return r
}

// FrameArrived captures one remote-LAN frame for the far gateway
// (Station interface). The payload is copied here, on the remote
// shard, into a pooled buffer that the cross-shard post owns
// exclusively until the far end's done hook gives it back.
func (r *Relay) FrameArrived(f Frame) {
	c := copyPayload(&r.freeCopies, f.Payload)
	f.Payload = c.buf
	r.tmFwd.Inc()
	r.forward(f, c.release)
}

// Inject re-broadcasts a frame from the far gateway onto the local
// medium: normal FIFO arbitration, jitter, CRC and delivery fan-out
// apply, so to every local receiver the relayed CSP is
// indistinguishable from a locally transmitted one (modulo the
// rewritten stamp). done, if non-nil, fires with the medium's done
// hook for the re-broadcast. Must run on the medium's own shard.
func (r *Relay) Inject(f Frame, done func()) {
	j := pop(&r.freeTx)
	if j == nil {
		j = &relayed{r: r}
		j.acquiredFn, j.doneFn = j.acquired, j.finish
	}
	j.payload, j.origAcquired, j.done = f.Payload, f.AcquiredAt, done
	r.med.Lend(Frame{Src: r.id, Dst: f.Dst, Payload: f.Payload}, j.acquiredFn, j.doneFn)
}

// String implements fmt.Stringer for diagnostics.
func (r *Relay) String() string { return fmt.Sprintf("relay(station %d)", r.id) }
