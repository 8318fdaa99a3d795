package discipline

import (
	"ntisim/internal/interval"
	"ntisim/internal/timefmt"
)

// measure fuses one round's intervals into the Marzullo interval (the
// accuracy edges every discipline maintains) and the fault-tolerant
// midpoint offset measurement z = FTMidpoint − Now in seconds (the
// scalar the filters consume). f is degraded by interval.DegradeF, like
// the interval convergence functions. ok=false when the inputs admit no
// fault-tolerant intersection.
func measure(fz *interval.Fuser, s Sample) (mz interval.Interval, z float64, ok bool) {
	f := interval.DegradeF(len(s.Intervals), s.F)
	mz, ok = fz.Marzullo(s.Intervals, f)
	if !ok {
		return interval.Interval{}, 0, false
	}
	z = fz.FTMidpoint(s.Intervals, f).Sub(s.Now).Seconds()
	return mz, z, true
}

// refAt turns a filtered offset estimate (seconds) back into a
// reference point on the local clock axis.
func refAt(now timefmt.Stamp, offS float64) timefmt.Stamp {
	return now.Add(timefmt.DurationFromSeconds(offS))
}

// Kalman is a two-state (offset, rate) Kalman filter over the per-round
// fault-tolerant-midpoint offset measurement, the shape of scion-time's
// filter_kalman / P-TimeSync's propagation-noise filters: the
// measurement noise ε (delay asymmetry, stamp granularity) is averaged
// down by the steady-state gain while the rate state keeps the
// prediction honest between rounds. The commanded correction is the
// filtered offset; after commanding, the offset state is zeroed (the
// servo consumes it) while the rate estimate persists.
//
// Accuracy is maintained orthogonally: the returned interval is the
// Marzullo intersection re-referenced at the filtered offset, so
// containment never depends on the filter being right.
type Kalman struct {
	fz interval.Fuser

	x, v          float64 // offset [s], rate [s/s] state
	pxx, pxv, pvv float64 // covariance
	init          bool
	lastNow       timefmt.Stamp
}

// The Kalman noise model, sized for the prototype LAN: ~2 µs
// measurement noise, TCXO-class rate wander. kalmanQOffset and
// kalmanQRate are process-noise densities, kalmanR the measurement
// variance. Typed variables, so the covariance products round in
// float64 step by step.
var (
	kalmanQOffset float64 = 1e-16   // 10 ns²/s offset random walk [s²/s]
	kalmanQRate   float64 = 2.5e-15 // (50 ppb)²/s rate random walk [(s/s)²/s]
	kalmanR       float64 = 4e-12   // (2 µs)² measurement noise [s²]
)

// NewKalman returns a Kalman discipline.
func NewKalman() *Kalman { return &Kalman{} }

// Name implements Discipline.
func (d *Kalman) Name() string { return "kalman" }

// Step implements Discipline.
func (d *Kalman) Step(s Sample) (Action, bool) {
	mz, z, ok := measure(&d.fz, s)
	if !ok {
		return Action{}, false
	}
	if !d.init {
		// First fix: adopt the raw measurement (the synchronizer's step
		// threshold handles the initial jump), uncertain rate.
		d.init = true
		d.x, d.v = z, 0
		d.pxx, d.pxv, d.pvv = kalmanR, 0, 1e-12
		d.lastNow = s.Now
		corr := d.x
		d.x = 0
		return Action{Interval: mz.Rereference(refAt(s.Now, corr))}, true
	}
	dt := s.Now.Sub(d.lastNow).Seconds()
	if dt < 0 {
		dt = 0
	}
	d.lastNow = s.Now

	// Predict: x += v·dt under random-walk process noise.
	d.x += d.v * dt
	d.pxx += 2*d.pxv*dt + d.pvv*dt*dt + kalmanQOffset*dt
	d.pxv += d.pvv * dt
	d.pvv += kalmanQRate * dt

	// Update with the scalar measurement z (H = [1 0]).
	innS := d.pxx + kalmanR
	kx := d.pxx / innS
	kv := d.pxv / innS
	inn := z - d.x
	d.x += kx * inn
	d.v += kv * inn
	d.pvv -= kv * d.pxv
	d.pxv *= 1 - kx
	d.pxx *= 1 - kx

	// Command the filtered offset; the servo removes it, so the offset
	// state restarts at zero while the rate estimate carries over.
	corr := d.x
	d.x = 0
	return Action{Interval: mz.Rereference(refAt(s.Now, corr))}, true
}
