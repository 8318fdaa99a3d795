// Package network models the communications substrates of the paper.
//
// The NTI targets class (II) systems (paper §1): nodes within a few
// hundred metres on a packet-oriented LAN with almost deterministic
// propagation delays but considerable medium-access uncertainty. Medium
// models a shared 10 Mb/s broadcast bus of that kind, including
// background load, FIFO arbitration with jitter, per-pair propagation
// delays and CRC errors.
//
// WANPath models a class (III) long-haul path with heavy-tailed queueing
// delays at intermediate gateways, used by the NTP-style baseline of
// experiment E7.
package network

import (
	"fmt"

	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// Frame is one link-layer frame in flight.
type Frame struct {
	Src     int    // transmitting station id
	Dst     int    // receiving station id, Broadcast for all
	Payload []byte // link SDU (the CSP wire format or test data)
	Corrupt bool   // set on delivery when the CRC check failed

	// ID is the medium-assigned per-frame trace id (monotone from 1),
	// the flow key that links every trace record of one frame's
	// flight path. Simulation metadata, not on the wire.
	ID uint64

	// Timing trace, filled in by the medium (simulation metadata; real
	// hardware has no access to these).
	RequestedAt float64 // when the sender asked for the medium
	AcquiredAt  float64 // when serialization began
	DeliveredAt float64 // when the last bit arrived at the receiver
}

// Broadcast addresses every attached station.
const Broadcast = -1

// BackgroundDst is the destination of synthetic background-load frames:
// it matches no station, so such frames occupy the bus for their full
// serialization time (which is all that matters for medium-access
// uncertainty) but are never delivered — the delivery loop skips the
// station walk entirely rather than filtering each station against an
// address that cannot match (see TestBackgroundFramesReachNoStation).
const BackgroundDst = -3

// BackgroundSrc is the virtual station id background-load frames are
// sent from. It is never a real attach id, so delivery filters treat it
// like any other foreign source.
const BackgroundSrc = -2

// Bus is the transmit-side contract a link-layer client (package comco)
// needs from a communications substrate: attach a receiving station,
// queue frames with an acquisition callback, and know the bit rate for
// DMA pacing. Medium (shared broadcast bus) and LinkPort (dedicated
// point-to-point WAN port, see link.go) both implement it.
type Bus interface {
	Attach(st Station) int
	Send(f Frame, onAcquired func(at float64)) uint64
	Bitrate() float64
}

// Station receives frames from a medium.
type Station interface {
	// FrameArrived is invoked once per delivered frame, after the last
	// bit has been received. Corrupted frames are delivered with
	// f.Corrupt set: the physical interface still saw the bits (and the
	// NTI's decode logic may already have triggered a timestamp — paper
	// footnote 4), the controller discards them afterwards.
	FrameArrived(f Frame)
}

// MediumConfig parameterizes a shared broadcast bus.
type MediumConfig struct {
	BitRateBps   float64 // default 10 Mb/s
	PreambleBits int     // bits on the wire before the payload; default 64
	InterframeS  float64 // minimum gap between frames; default 9.6 µs
	// PropDelayS is the one-way propagation delay between any two
	// stations (class II: essentially constant). Default 500 ns (~100 m).
	PropDelayS float64
	// AccessJitterS bounds the uniformly distributed extra arbitration
	// delay a station experiences when acquiring a busy medium.
	AccessJitterS float64
	// CRCErrorProb is the per-delivery probability of a corrupted frame.
	CRCErrorProb float64
}

// DefaultLAN returns the 10 Mb/s shared-Ethernet-like configuration used
// by the paper's prototype (Intel 82596CA on 10 Mb/s Ethernet).
func DefaultLAN() MediumConfig {
	return MediumConfig{
		BitRateBps:    10e6,
		PreambleBits:  64,
		InterframeS:   9.6e-6,
		PropDelayS:    500e-9,
		AccessJitterS: 20e-6,
	}
}

type pendingTx struct {
	frame      Frame
	onAcquired func(at float64)
}

// delivery is one pooled in-flight reception: the frame copy bound for
// one station plus a callback closed over the delivery itself, created
// once when the object enters the pool. Reusing deliveries keeps the
// per-station fan-out of a broadcast allocation-free.
type delivery struct {
	m   *Medium
	st  Station
	id  int // receiving station id (trace metadata)
	f   Frame
	run func()
}

func (d *delivery) deliver() {
	m, st, f, id := d.m, d.st, d.f, d.id
	d.st = nil
	d.f = Frame{}
	m.freeDeliv = append(m.freeDeliv, d)
	if m.tr != nil {
		corrupt := uint64(0)
		if f.Corrupt {
			corrupt = 1
		}
		m.tr.Emit(trace.KindFrameRx, m.s.Now(), id, 0, f.ID, corrupt, 0)
	}
	st.FrameArrived(f)
}

// SetPartitioned severs the medium: while partitioned, frames are still
// transmitted (the sender's COMCO behaves normally, triggers included)
// but reach no station — a cable fault or switch outage. Queued and
// in-flight traffic is unaffected retroactively.
func (m *Medium) SetPartitioned(down bool) { m.partitioned = down }

// Medium is a shared broadcast bus with FIFO arbitration.
type Medium struct {
	s           *sim.Simulator
	cfg         MediumConfig
	rng         *sim.RNG
	stations    []Station
	queue       []pendingTx
	head        int // queue[:head] already consumed (ring reuse)
	busy        bool
	partitioned bool
	sent        uint64
	dropped     uint64
	nextID      uint64
	tr          *trace.Tracer
	bgStop      func()

	// cur is the transmission currently waiting out arbitration; the
	// prebuilt method values let the hot path schedule without
	// allocating a closure per frame.
	cur         pendingTx
	transmitFn  func()
	startNextFn func()
	freeDeliv   []*delivery
	bgPayload   []byte

	// Telemetry handles from the simulator's registry; nil-receiver
	// no-ops when off.
	tmSent      *telemetry.Counter
	tmLost      *telemetry.Counter
	tmCorrupt   *telemetry.Counter
	tmBg        *telemetry.Counter
	tmContended *telemetry.Counter
	tmBacklog   *telemetry.Gauge
	tmBusy      *telemetry.Gauge
}

// NewMedium attaches a broadcast bus to the simulator. The medium
// reports to the simulator's observability scope: it emits frame-tx /
// frame-lost / frame-rx records (never consuming RNG or changing timing
// on the tracer's behalf) and counts frames sent/lost/corrupt,
// background frames, contended acquisitions (frames that found the bus
// busy — the shared-Ethernet stand-in for collisions), the tx-ring
// backlog and the cumulative bus-busy-seconds integral (occupancy =
// Δbusy/Δt between snapshots).
func NewMedium(s *sim.Simulator, cfg MediumConfig) *Medium {
	if cfg.BitRateBps <= 0 {
		cfg.BitRateBps = 10e6
	}
	if cfg.PreambleBits <= 0 {
		cfg.PreambleBits = 64
	}
	if cfg.InterframeS <= 0 {
		cfg.InterframeS = 9.6e-6
	}
	if cfg.PropDelayS < 0 {
		panic("network: negative propagation delay")
	}
	r := s.Telemetry()
	m := &Medium{
		s: s, cfg: cfg, rng: s.RNG("medium"), tr: s.Tracer(),
		tmSent:      r.Counter("net.frames_sent"),
		tmLost:      r.Counter("net.frames_lost"),
		tmCorrupt:   r.Counter("net.crc_corrupt"),
		tmBg:        r.Counter("net.bg_frames"),
		tmContended: r.Counter("net.contended"),
		tmBacklog:   r.Gauge("net.tx_backlog"),
		tmBusy:      r.Gauge("net.bus_busy_s"),
	}
	m.transmitFn = m.transmitCur
	m.startNextFn = m.startNext
	return m
}

// Attach registers a station and returns its id.
func (m *Medium) Attach(st Station) int {
	m.stations = append(m.stations, st)
	return len(m.stations) - 1
}

// Stations returns the number of attached stations.
func (m *Medium) Stations() int { return len(m.stations) }

// Bitrate returns the configured bit rate in bits per second.
func (m *Medium) Bitrate() float64 { return m.cfg.BitRateBps }

// FrameDuration returns the serialization time of a frame with n payload
// bytes.
func (m *Medium) FrameDuration(n int) float64 {
	return (float64(m.cfg.PreambleBits) + 8*float64(n)) / m.cfg.BitRateBps
}

// Send queues a frame for transmission and returns the frame's
// medium-assigned trace id (monotone from 1 per medium). onAcquired, if
// non-nil, fires at the moment serialization begins (the sender's COMCO
// starts pulling the frame from memory around then — package comco
// builds on this hook).
func (m *Medium) Send(f Frame, onAcquired func(at float64)) uint64 {
	m.nextID++
	f.ID = m.nextID
	f.RequestedAt = m.s.Now()
	m.queue = append(m.queue, pendingTx{frame: f, onAcquired: onAcquired})
	m.tmBacklog.Set(float64(len(m.queue) - m.head))
	if !m.busy {
		m.startNext()
	}
	return f.ID
}

func (m *Medium) startNext() {
	if m.head == len(m.queue) {
		m.queue = m.queue[:0] // reuse the backing array
		m.head = 0
		m.busy = false
		return
	}
	m.busy = true
	tx := m.queue[m.head]
	m.queue[m.head] = pendingTx{}
	m.head++
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
	} else if m.head >= 64 && m.head >= len(m.queue)/2 {
		// Sustained backlog: reclaim the consumed prefix so the backing
		// array stays bounded (amortized O(1) per frame).
		m.queue = append(m.queue[:0], m.queue[m.head:]...)
		m.head = 0
	}
	// Medium-access uncertainty: arbitration adds bounded random delay
	// when there was contention; an idle medium is acquired immediately
	// after the interframe gap.
	delay := m.cfg.InterframeS
	if m.cfg.AccessJitterS > 0 && tx.frame.RequestedAt < m.s.Now() {
		delay += m.rng.Uniform(0, m.cfg.AccessJitterS)
		m.tmContended.Inc()
	}
	m.cur = tx
	m.s.After(delay, m.transmitFn)
}

// allocDelivery takes a delivery from the pool, binding its callback
// once on first allocation.
func (m *Medium) allocDelivery() *delivery {
	if n := len(m.freeDeliv); n > 0 {
		d := m.freeDeliv[n-1]
		m.freeDeliv[n-1] = nil
		m.freeDeliv = m.freeDeliv[:n-1]
		return d
	}
	d := &delivery{m: m}
	d.run = d.deliver
	return d
}

// transmitCur serializes the transmission parked in m.cur. The FIFO
// arbitration admits one transmission at a time (m.busy), so a single
// slot suffices and the whole path schedules only prebuilt callbacks.
func (m *Medium) transmitCur() {
	tx := m.cur
	m.cur = pendingTx{}
	start := m.s.Now()
	if tx.onAcquired != nil {
		tx.onAcquired(start)
	}
	f := tx.frame
	f.AcquiredAt = start
	dur := m.FrameDuration(len(f.Payload))
	end := start + dur
	m.tmBusy.Add(dur)
	if f.Src == BackgroundSrc {
		m.tmBg.Inc()
	}
	if m.partitioned {
		if m.tr != nil {
			m.tr.Emit(trace.KindFrameLost, start, f.Src, 0, f.ID, uint64(len(f.Payload)), dur)
		}
		m.sent++
		m.tmLost.Inc()
		m.s.At(end, m.startNextFn)
		return
	}
	if m.tr != nil {
		m.tr.Emit(trace.KindFrameTx, start, f.Src, 0, f.ID, uint64(len(f.Payload)), dur)
	}
	// Deliver at frame end + propagation — to the receivers only, not
	// O(stations): a broadcast walks every other station, a unicast
	// indexes its one receiver, and an unmatchable destination (e.g.
	// BackgroundDst) skips delivery work entirely. CRC randomness is
	// drawn once per actual delivery, in attach-id order, exactly as the
	// full walk would, so the filter is invisible to the RNG streams.
	switch {
	case f.Dst == Broadcast:
		for id, st := range m.stations {
			if id == f.Src {
				continue
			}
			m.scheduleDelivery(st, id, f, end)
		}
	case f.Dst >= 0 && f.Dst < len(m.stations) && f.Dst != f.Src:
		m.scheduleDelivery(m.stations[f.Dst], f.Dst, f, end)
	}
	m.sent++
	m.tmSent.Inc()
	m.s.At(end, m.startNextFn)
}

// scheduleDelivery queues one station's reception of f (last bit at
// end, plus propagation), drawing that delivery's CRC fate.
func (m *Medium) scheduleDelivery(st Station, id int, f Frame, end float64) {
	d := m.allocDelivery()
	d.st = st
	d.id = id
	d.f = f
	d.f.DeliveredAt = end + m.cfg.PropDelayS
	d.f.Corrupt = m.cfg.CRCErrorProb > 0 && m.rng.Bool(m.cfg.CRCErrorProb)
	if d.f.Corrupt {
		m.dropped++
		m.tmCorrupt.Inc()
	}
	m.s.At(d.f.DeliveredAt, d.run)
}

// Stats returns frames transmitted and deliveries corrupted.
func (m *Medium) Stats() (sent, corrupted uint64) { return m.sent, m.dropped }

// StartBackgroundLoad injects competing traffic: frames of meanBytes mean
// size (exponential, clamped to [64, 1500]) at a rate that loads the
// medium to approximately `utilization` (0..1). The frames come from a
// virtual station and are delivered to nobody; they only occupy the bus,
// which is all that matters for medium-access uncertainty.
func (m *Medium) StartBackgroundLoad(utilization float64, meanBytes int) {
	if utilization <= 0 {
		return
	}
	if utilization >= 0.95 {
		panic(fmt.Sprintf("network: background utilization %v too high", utilization))
	}
	if meanBytes <= 0 {
		meanBytes = 400
	}
	rng := m.s.RNG("bgload")
	meanDur := m.FrameDuration(meanBytes)
	meanGap := meanDur / utilization
	if m.bgPayload == nil {
		// Background frames reach no station (BackgroundDst) — only
		// their length occupies the bus — so every frame can slice one
		// shared scratch buffer instead of allocating a payload.
		m.bgPayload = make([]byte, 1500)
	}
	stopped := false
	var emit func()
	emit = func() {
		if stopped {
			return
		}
		n := int(rng.Exponential(float64(meanBytes)))
		if n < 64 {
			n = 64
		}
		if n > 1500 {
			n = 1500
		}
		m.Send(Frame{Src: BackgroundSrc, Dst: BackgroundDst, Payload: m.bgPayload[:n]}, nil)
		if stopped {
			return
		}
		m.s.After(rng.Exponential(meanGap), emit)
	}
	m.s.After(rng.Exponential(meanGap), emit)
	m.bgStop = func() { stopped = true }
}

// StopBackgroundLoad halts the generator.
func (m *Medium) StopBackgroundLoad() {
	if m.bgStop != nil {
		m.bgStop()
		m.bgStop = nil
	}
}
