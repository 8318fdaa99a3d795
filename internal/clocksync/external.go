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
	pulses   uint64

	// Rate measurement against UTC: the pps train is a rate reference
	// (label seconds vs local elapsed), the one reference that lets the
	// deterioration bound shrink legitimately — relative ensemble rate
	// synchronization alone cannot bound drift versus UTC.
	rateHist    []ppsRecord
	rateBaseMin int64 // baseline seconds before a rate estimate is valid
}

type ppsRecord struct {
	label int64
	local timefmt.Stamp
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
		node:        node,
		gpu:         gpuIndex,
		acc:         accuracy,
		rho:         rhoPPB,
		maxAge:      timefmt.DurationFromSeconds(10),
		rateBaseMin: 16,
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
	g.pulses++
	g.rateHist = append(g.rateHist, ppsRecord{label: p.LabelSec, local: st})
	if max := int(2*g.rateBaseMin) + 4; len(g.rateHist) > max {
		g.rateHist = g.rateHist[len(g.rateHist)-max:]
	}
}

// RateVsUTC estimates the local clock's rate offset from UTC in ppb
// (positive = clock fast), from the pps train over a sliding baseline
// of at least rateBaseMin seconds. ok is false until enough pulses
// accumulated. Measurement error ≈ 2·(sawtooth + 1/fosc)/baseline,
// a few tens of ppb.
func (g *GPSAttachment) RateVsUTC() (ppb int64, ok bool) {
	n := len(g.rateHist)
	if n < 2 {
		return 0, false
	}
	newest := g.rateHist[n-1]
	// The oldest record at least rateBaseMin seconds back.
	base := g.rateHist[0]
	if newest.label-base.label < g.rateBaseMin {
		return 0, false
	}
	dLabel := newest.label - base.label // true elapsed seconds
	dLocal := newest.local.Sub(base.local).Seconds()
	return int64((dLocal - float64(dLabel)) / float64(dLabel) * 1e9), true
}

// Pulses reports accepted pulses.
func (g *GPSAttachment) Pulses() uint64 { return g.pulses }

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
