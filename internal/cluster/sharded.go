// Sharded WANs-of-LANs: how New lays segments out on the parallel kernel.
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
// LAN keeps the root seed), window boundaries and mailbox
// flush order are all pure functions of the Config — never of the
// worker count — so campaign artifacts are byte-identical for
// Shards=1 and Shards=N. The 1-worker run IS the single-kernel
// baseline: the same per-segment simulators executed sequentially.
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
// conservative lookahead of the parallel kernel: 1 ms, a
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
// The stamp words are safe to edit in flight: the CSP header checksum
// deliberately skips the hardware-inserted stamp region
// (csp.headerCheck mixes up to OffTxTrig and from OffEcho), and the
// BTU checksum inside the macrostamp word is recomputed by
// Stamp.Words.
func relayRewrite(rhoPPB int64) network.RewriteFunc {
	return func(payload []byte, elapsedS float64) {
		if len(payload) < csp.HeaderSize || csp.Kind(payload[csp.OffKind]) != csp.KindCSP {
			return
		}
		ts := binary.BigEndian.Uint32(payload[csp.OffTxStamp:])
		ms := binary.BigEndian.Uint32(payload[csp.OffTxMacro:])
		st, ok := timefmt.FromWords(ts, ms)
		if !ok {
			return // stamp never inserted (software modes pre-fill; NTI mode always has) or corrupt
		}
		d := timefmt.DurationFromSeconds(elapsedS)
		w1, w2 := st.Add(d).Words()
		binary.BigEndian.PutUint32(payload[csp.OffTxStamp:], w1)
		binary.BigEndian.PutUint32(payload[csp.OffTxMacro:], w2)
		widen := timefmt.AlphaFromDuration(interval.DriftDeterioration(d, rhoPPB) + 1)
		am := timefmt.Alpha(binary.BigEndian.Uint16(payload[csp.OffTxAlpha:]))
		ap := timefmt.Alpha(binary.BigEndian.Uint16(payload[csp.OffTxAlpha+2:]))
		binary.BigEndian.PutUint16(payload[csp.OffTxAlpha:], uint16(am.AddSat(widen)))
		binary.BigEndian.PutUint16(payload[csp.OffTxAlpha+2:], uint16(ap.AddSat(widen)))
	}
}
