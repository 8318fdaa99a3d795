package discipline

import (
	"sort"

	"ntisim/internal/interval"
)

// TheilSen is a robust trend estimator (scion-time's theil_sen shape):
// it fits offset-vs-time over a sample window with the Theil-Sen
// estimator — slope = median of all pairwise slopes, intercept = median
// residual — which tolerates up to ~29% arbitrary outliers, so a burst
// of delayed CSPs or one lying peer cannot bend the fit the way it
// bends a least-squares line. The commanded correction is the fit's
// prediction at the current instant; once per full window the fitted
// slope is additionally commanded as a rate adjustment (median-based
// rate steering), and the window restarts so stale-rate samples never
// feed back.
type TheilSen struct {
	fz interval.Fuser

	totalPPB int64     // net rate commanded so far (anti-windup state)
	ts, offs []float64 // sample window: local time [s], residual offset [s]
	scratch  []float64 // pairwise slopes / residuals for the medians
}

// theilSenWindow is the regression depth in rounds (≥ 3 to fit).
const theilSenWindow = 8

// theilSenRateGain scales the slope → rate command, a typed variable
// so the command product rounds in float64.
var theilSenRateGain float64 = 0.5

// NewTheilSen returns a Theil-Sen discipline.
func NewTheilSen() *TheilSen { return &TheilSen{} }

// Name implements Discipline.
func (d *TheilSen) Name() string { return "theilsen" }

// median sorts vals in place and returns the midpoint (mean of the two
// central elements for even counts).
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Step implements Discipline.
func (d *TheilSen) Step(s Sample) (Action, bool) {
	mz, z, ok := measure(&d.fz, s)
	if !ok {
		return Action{}, false
	}
	tNow := s.Now.Seconds()
	if len(d.ts) >= theilSenWindow {
		copy(d.ts, d.ts[1:])
		copy(d.offs, d.offs[1:])
		d.ts = d.ts[:len(d.ts)-1]
		d.offs = d.offs[:len(d.offs)-1]
	}
	d.ts = append(d.ts, tNow)
	d.offs = append(d.offs, z)

	if len(d.ts) < 3 {
		// Not enough points for a fit: behave like the raw baseline.
		corr := z
		for i := range d.offs {
			d.offs[i] -= corr
		}
		return Action{Interval: mz.Rereference(refAt(s.Now, corr))}, true
	}

	// Theil-Sen slope: median of all pairwise slopes.
	slopes := d.scratch[:0]
	for i := 0; i < len(d.ts); i++ {
		for j := i + 1; j < len(d.ts); j++ {
			dt := d.ts[j] - d.ts[i]
			if dt <= 0 {
				continue
			}
			slopes = append(slopes, (d.offs[j]-d.offs[i])/dt)
		}
	}
	d.scratch = slopes
	if len(slopes) == 0 {
		return Action{}, false
	}
	m := median(slopes)
	// Intercept: median residual against the slope.
	resid := d.scratch[:0]
	for i := range d.ts {
		resid = append(resid, d.offs[i]-m*(d.ts[i]-tNow))
	}
	d.scratch = resid
	corr := median(resid) // fit evaluated at tNow

	act := Action{}
	if len(d.ts) >= theilSenWindow {
		// Window full: command the fitted residual drift as a rate
		// adjustment and restart the window (its samples describe the
		// pre-adjustment rate).
		ppb := int64(-m * theilSenRateGain * 1e9)
		if tot := d.totalPPB + ppb; tot > maxRatePPB {
			ppb = maxRatePPB - d.totalPPB
		} else if tot < -maxRatePPB {
			ppb = -maxRatePPB - d.totalPPB
		}
		if ppb != 0 {
			act.RateDeltaPPB = ppb
			d.totalPPB += ppb
			d.ts = d.ts[:0]
			d.offs = d.offs[:0]
		}
	}
	for i := range d.offs {
		d.offs[i] -= corr
	}
	act.Interval = mz.Rereference(refAt(s.Now, corr))
	return act, true
}
