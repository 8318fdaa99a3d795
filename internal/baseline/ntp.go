package baseline

import (
	"math"

	"ntisim/internal/network"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

// NTPClient is a software-only WAN time client in the style of the
// Network Time Protocol [Mil91]: it polls a server across a WANPath,
// computes the classic offset/delay estimates from four timestamps,
// filters by minimum round-trip delay, and disciplines the local clock.
// Under the heavy-tailed, possibly asymmetric queueing delays of class
// (III) systems it lands in the ~10 ms accuracy regime the paper quotes
// from [Tro94] — the E7 contrast to the NTI's µs on a LAN.
type NTPClient struct {
	s    *sim.Simulator
	u    *utcsu.UTCSU
	path *network.WANPath
	cfg  NTPConfig

	// shift register of recent (delay, offset) samples; the minimum-
	// delay sample wins (NTP's clock filter).
	samples []ntpSample
	synced  bool
	rng     *sim.RNG
}

type ntpSample struct {
	delay  float64
	offset float64 // seconds to ADD to local clock
}

// NTPConfig tunes the client.
type NTPConfig struct {
	PollInterval float64 // default 16 s
	FilterDepth  int     // clock-filter shift register size; default 8
	// ServerErrS is the server's own clock error bound (drawn uniformly
	// per response); default 1 ms.
	ServerErrS float64
	// StepThresholdS: larger offsets step the clock; smaller ones slew.
	StepThresholdS float64
}

// DefaultNTP returns a mid-90s configuration.
func DefaultNTP() NTPConfig {
	return NTPConfig{
		PollInterval:   16,
		FilterDepth:    8,
		ServerErrS:     1e-3,
		StepThresholdS: 128e-3,
	}
}

// NewNTPClient binds a client to a local UTCSU (used purely as a
// software-read clock — no NTI support on this path) and a WAN path to
// the server.
func NewNTPClient(s *sim.Simulator, u *utcsu.UTCSU, path *network.WANPath, cfg NTPConfig) *NTPClient {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 16
	}
	if cfg.FilterDepth <= 0 {
		cfg.FilterDepth = 8
	}
	if cfg.StepThresholdS <= 0 {
		cfg.StepThresholdS = 128e-3
	}
	return &NTPClient{s: s, u: u, path: path, cfg: cfg, rng: s.RNG("ntp-server")}
}

// Start begins polling.
func (c *NTPClient) Start() {
	c.s.Every(c.s.Now()+1, c.cfg.PollInterval, c.poll)
}

// poll performs one NTP exchange: client → server → client.
func (c *NTPClient) poll() {
	t1 := c.u.Now().Seconds() // software read of the local clock
	c.path.Deliver(true, func(_, reqArrive float64) {
		// Server timestamps with its own (bounded) error.
		srvErr := c.rng.Uniform(-c.cfg.ServerErrS, c.cfg.ServerErrS)
		t2 := reqArrive + srvErr
		t3 := t2 // negligible server turnaround
		c.path.Deliver(false, func(_, respArrive float64) {
			t4 := c.u.Now().Seconds()
			_ = respArrive
			offset := ((t2 - t1) + (t3 - t4)) / 2
			delay := (t4 - t1) - (t3 - t2)
			c.ingest(ntpSample{delay: delay, offset: offset})
		})
	})
}

// ingest runs the clock filter and disciplines the clock.
func (c *NTPClient) ingest(sm ntpSample) {
	c.samples = append(c.samples, sm)
	if len(c.samples) > c.cfg.FilterDepth {
		c.samples = c.samples[1:]
	}
	best := c.samples[0]
	for _, s := range c.samples[1:] {
		if s.delay < best.delay {
			best = s
		}
	}
	off := best.offset
	if math.Abs(off) >= c.cfg.StepThresholdS {
		c.u.StepTo(c.u.Now().Add(timefmt.DurationFromSeconds(off)))
		c.synced = true
		return
	}
	// Slew: amortize a fraction of the filtered offset each poll (a
	// crude PLL, matching SNTP-class implementations).
	c.u.Amortize(timefmt.DurationFromSeconds(off/2), 500)
	c.synced = true
}

// OffsetSeconds returns the client clock's current error versus true
// time (simulation ground truth, for the experiment harness).
func (c *NTPClient) OffsetSeconds() float64 {
	snap := c.u.Snapshot()
	return snap.Clock.Seconds() - snap.TrueTime
}
