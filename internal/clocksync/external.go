package clocksync

import (
	"ntisim/internal/gps"
	"ntisim/internal/interval"
	"ntisim/internal/kernel"
	"ntisim/internal/timefmt"
)

// GPSAttachment couples a GPS receiver's 1pps output to one of the
// node's GPU timestamping units (paper §3.3: "three independent GPUs
// are provided for timestamping the one pulse per second signal") and
// turns the latest fix into an ExternalFunc for the synchronizer's
// clock-validation step.
type GPSAttachment struct {
	node *kernel.Node
	gpu  int
	acc  timefmt.Duration
	rho  int64

	haveFix  bool
	labelSec int64
	local    timefmt.Stamp
	maxAge   timefmt.Duration
}

// AttachGPS prepares a GPS coupling on GPU unit gpuIndex. accuracy is
// the receiver's claimed bound on the pulse error; rhoPPB the local
// drift bound used to age fixes. Wire the returned attachment's OnPulse
// into a gps.Receiver and its Interval into the Synchronizer:
//
//	att := clocksync.AttachGPS(node, 0, acc, rho)
//	gps.New(node.Sim, cfg, label, int(node.ID), att.OnPulse)
//	sy.AddExternal(att.Interval)
func AttachGPS(node *kernel.Node, gpuIndex int, accuracy timefmt.Duration, rhoPPB int64) *GPSAttachment {
	return &GPSAttachment{
		node:   node,
		gpu:    gpuIndex,
		acc:    accuracy,
		rho:    rhoPPB,
		maxAge: timefmt.DurationFromSeconds(10),
	}
}

// OnPulse feeds one 1pps event into the GPU unit. The hardware samples
// the local clock (with the synchronizer-stage uncertainty); the serial
// time-of-day label arrives out of band and is paired here, as the
// off-chip software of the paper does.
func (g *GPSAttachment) OnPulse(p gps.Pulse) {
	if !p.Valid {
		return
	}
	st, ok := g.node.U.GPU(g.gpu).Trigger(true)
	if !ok {
		return
	}
	g.haveFix = true
	g.labelSec = p.LabelSec
	g.local = st
}

// Interval is the ExternalFunc: the external estimate of what the local
// clock should read now, with the receiver's claimed accuracy aged by
// local drift since the pulse.
func (g *GPSAttachment) Interval(now timefmt.Stamp) (interval.Interval, bool) {
	if !g.haveFix {
		return interval.Interval{}, false
	}
	dt := now.Sub(g.local)
	if dt < 0 || dt > g.maxAge {
		return interval.Interval{}, false
	}
	ref := timefmt.Stamp(g.labelSec << 24).Add(dt)
	unc := g.acc + interval.DriftDeterioration(dt, g.rho) + 2
	return interval.New(ref, unc, unc), true
}
