package clocksync

import (
	"ntisim/internal/csp"
	"ntisim/internal/interval"
	"ntisim/internal/kernel"
	"ntisim/internal/timefmt"
)

// DelayBounds is the result of a round-trip measurement campaign: bounds
// on the one-way delay between the hardware timestamping points of two
// nodes, the input to delay compensation (paper §2: "our ambitious goal
// ... makes it inevitable to employ an accurate round-trip-based
// transmission delay measurement").
type DelayBounds struct {
	Min, Max timefmt.Duration
	Samples  int
}

// MeasureDelay runs n round-trip probes from a to b (whose RTT
// responder must be enabled) and calls done with conservative one-way
// bounds. Each probe yields, entirely from hardware stamps,
//
//	oneway_i = ((T4−T1) − (T3−T2)) / 2
//
// where T1/T4 are the probe's transmit and the response's receive stamp
// on a's clock, and T2/T3 the corresponding stamps on b's clock. The
// spread of oneway_i over the campaign, widened by clock-granularity
// and drift margins, bounds the true delay.
//
// A campaign in which no probe yields a usable sample reports Samples
// 0 and zero bounds, which must not be applied. The next probe goes out
// only when a response arrives, so one lost frame stalls the campaign
// and done is never called; the returned function reports the samples
// taken so far, for a caller that gives up waiting.
//
// MeasureDelay replaces a's CI handler for the campaign and does not
// restore it: once done has been called (or the caller gives up), a
// Synchronizer built on a before the campaign gets its handler back
// through ReinstallHandler, as cluster.MeasureDelay does. Run it before
// that Synchronizer starts, since its CSPs would reach the probe
// handler instead.
func MeasureDelay(a *kernel.Node, b *kernel.Node, rhoPPB int64, n int, done func(DelayBounds)) (samples func() int) {
	if n <= 0 {
		n = 16
	}
	var (
		lo   timefmt.Duration = 1 << 62
		hi   timefmt.Duration
		got  int
		sent int
	)

	sendProbe := func() {
		sent++
		a.SendCSP(csp.Packet{Kind: csp.KindRTTReq, Round: uint32(sent)}, b.Station())
	}

	a.OnCSP(func(ar kernel.Arrival) {
		if ar.Pkt.Kind != csp.KindRTTResp || !ar.StampOK {
			return
		}
		t1 := ar.Pkt.EchoReqTx
		t2 := ar.Pkt.EchoReqRx
		t3, ok := ar.Pkt.TxStamp()
		t4 := ar.RxStamp
		if ok {
			rt := t4.Sub(t1)          // on a's clock
			turn := t3.Sub(t2)        // on b's clock
			oneway := (rt - turn) / 2 // symmetric estimate
			if oneway > 0 {
				if oneway < lo {
					lo = oneway
				}
				if oneway > hi {
					hi = oneway
				}
				got++
			}
		}
		if got >= n || sent >= 4*n {
			a.OnCSP(nil)
			if got == 0 {
				done(DelayBounds{})
				return
			}
			// Margins: reading granularity on four stamps plus relative
			// drift over a generous turnaround bound.
			margin := timefmt.Duration(4) + interval.DriftDeterioration(hi+1000, rhoPPB)
			done(DelayBounds{Min: maxDur(0, lo-margin), Max: hi + margin, Samples: got})
			return
		}
		sendProbe()
	})
	sendProbe()
	return func() int { return got }
}

func maxDur(a, b timefmt.Duration) timefmt.Duration {
	if a > b {
		return a
	}
	return b
}
