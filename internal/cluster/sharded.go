// Sharded WANs-of-LANs: how New lays segments out on the sharded kernel.
//
// The footnote-2 topology is embarrassingly decomposable: LAN segments
// interact only through gateway frames that cross a WAN link whose
// propagation delay is known a priori. New exploits that by giving
// every segment its own sim.Simulator (its own event queue, RNG
// universe and tracer) and composing them under a sim.Group whose
// conservative lookahead is exactly the WAN delay — see DESIGN.md §8.
// A flat LAN is the one-segment case: one shard, no gateways.
//
// Placement rules:
//
//   - A segment's nodes, medium and background load live on that
//     segment's shard.
//   - A gateway node is one NTI serving two segments, which couples
//     its UTCSU, synchronizer and both COMCOs into one indivisible
//     state machine; it is homed on the lower-numbered adjacent
//     segment's shard. Its first channel attaches to the home medium
//     directly; its second attaches to a network.LinkPort whose far
//     end (a network.Relay) sits on the remote segment's medium, with
//     frames carried across the shard boundary as Group.Post events
//     delayed by the WAN propagation delay (a wanLink's pooled hops).
//
// Relayed CSPs get a PTP-transparent-clock-style correction (see
// relayRewrite): without it, the extra link+WAN flight time would
// break the LAN-scale [DelayMin, DelayMax] bounds receivers compensate
// with, and the gateways' intervals would stop containing true time.
//
// Determinism: member construction order, RNG derivation
// (sim.DeriveSeed(seed, "shard/i") for two or more segments; a flat
// LAN keeps the root seed), window boundaries and mailbox flush order
// are all pure functions of the Config. The shards run in turn on one
// goroutine, one conservative window at a time; the speed of a large
// topology comes from the per-segment queues and the skipped idle
// windows (DESIGN.md §8).
package cluster

import (
	"encoding/binary"

	"ntisim/internal/csp"
	"ntisim/internal/interval"
	"ntisim/internal/network"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
)

// DefaultWANDelayS is the one-way WAN propagation delay between
// adjacent segments of a sharded topology, and therefore the
// conservative lookahead of the sharded kernel: 1 ms, a
// metropolitan-scale link with hundreds of LAN frames per window.
const DefaultWANDelayS = 1e-3

// relayRewrite is the transparent-clock correction applied to relayed
// CSPs at their final acquisition (see network.RewriteFunc): advance
// the embedded transmit stamp by the true time the frame spent beyond
// a direct transmission, and widen its accuracy fields by the drift
// the sender's clock may have accumulated over that span (the rewrite
// adds true elapsed time where a hardware transparent clock would add
// sender-clock elapsed time; the difference is bounded by ρ·elapsed,
// plus one granule of rounding). After the rewrite, the frame's
// timing geometry as seen by every receiver — stamp age vs.
// [DelayMin, DelayMax] — is that of a locally transmitted CSP, and
// interval containment survives the relay.
//
// The stamp edit is csp.ShiftTxStamp's; a frame it leaves alone (not a
// CSP, or no valid stamp) keeps its accuracy fields too.
func relayRewrite(rhoPPB int64) network.RewriteFunc {
	return func(payload []byte, elapsedS float64) {
		d := timefmt.DurationFromSeconds(elapsedS)
		if _, ok := csp.ShiftTxStamp(payload[:0], payload, d); !ok {
			return
		}
		widen := timefmt.AlphaFromDuration(interval.DriftDeterioration(d, rhoPPB) + 1)
		am := timefmt.Alpha(binary.BigEndian.Uint16(payload[csp.OffTxAlpha:]))
		ap := timefmt.Alpha(binary.BigEndian.Uint16(payload[csp.OffTxAlpha+2:]))
		binary.BigEndian.PutUint16(payload[csp.OffTxAlpha:], uint16(am.AddSat(widen)))
		binary.BigEndian.PutUint16(payload[csp.OffTxAlpha+2:], uint16(ap.AddSat(widen)))
	}
}

// wanLink is one gateway's WAN line between its home segment and the
// next. It carries each frame across the shard boundary as a
// Group.Post of a pooled hop's prebuilt run, so a relayed frame costs
// no closure. A hop is taken on the sending shard and put back on the
// receiving one, which is safe because the shards run in turn on one
// goroutine; the free list grows to the most frames ever in flight.
type wanLink struct {
	group        *sim.Group
	home, remote int
	sims         []*sim.Simulator
	port         *network.LinkPort
	relay        *network.Relay
	free         []*wanHop
}

// wanHop is one frame in WAN flight with its payload's done hook (see
// network.ForwardFunc).
type wanHop struct {
	l    *wanLink
	up   bool // home to remote, toward the relay; else toward the port
	f    network.Frame
	done func()
	run  func()
}

func (h *wanHop) arrive() {
	l, up, f, done := h.l, h.up, h.f, h.done
	h.f, h.done = network.Frame{}, nil
	l.free = append(l.free, h)
	if up {
		l.relay.Inject(f, done)
	} else {
		l.port.Inject(f, done)
	}
}

// up forwards a gateway's uplink frame to the relay on the remote
// segment; down forwards a remote-LAN frame to the gateway's port.
func (l *wanLink) up(f network.Frame, done func())   { l.post(l.home, l.remote, true, f, done) }
func (l *wanLink) down(f network.Frame, done func()) { l.post(l.remote, l.home, false, f, done) }

func (l *wanLink) post(src, dst int, up bool, f network.Frame, done func()) {
	var h *wanHop
	if n := len(l.free); n > 0 {
		h = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		h = &wanHop{l: l}
		h.run = h.arrive
	}
	h.up, h.f, h.done = up, f, done
	l.group.Post(src, dst, l.sims[src].Now()+DefaultWANDelayS, h.run)
}
