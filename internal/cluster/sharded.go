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
//     delayed by the WAN propagation delay.
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
