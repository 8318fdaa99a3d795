// Package cluster assembles complete multi-node systems — the paper's
// Fig. 2 architecture replicated N times on a shared medium — and
// provides the measurement scaffolding used by the experiments: the
// two-node ε setup of §4 and the 16-node prototype the paper announces.
package cluster

import (
	"fmt"
	"math"

	"ntisim/internal/adversary"
	"ntisim/internal/clocksync"
	"ntisim/internal/gps"
	"ntisim/internal/kernel"
	"ntisim/internal/network"
	"ntisim/internal/oscillator"
	"ntisim/internal/service"
	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
	"ntisim/internal/utcsu"
)

// Config assembles a cluster.
//
// A Config is mostly a value type, but GPS (a map) and the Faults
// slices inside its receiver configs alias their originals on plain
// struct copy. Parameter sweeps that mutate per-cell configs must go
// through Clone, which deep-copies those; all other fields (including
// the nested Medium/Kernel/Sync structs) are safe to mutate on a
// struct copy. The function field ClockFactory remains shared by Clone
// — it must be pure (no captured mutable state) to keep cloned configs
// independent.
type Config struct {
	Nodes int
	Seed  uint64
	// IdealOscillators paces every node from a drift-free oscillator
	// instead of the TCXO, for experiments that isolate data-path
	// effects from clock drift.
	IdealOscillators bool
	// OscHz is the pacing frequency (default 10 MHz; the paper's UTCSU
	// accepts 1..20 MHz).
	OscHz  float64
	Medium network.MediumConfig
	Kernel kernel.Config
	Sync   clocksync.Params
	// ClockFactory builds the clock device the synchronizer steers;
	// default wraps the node's UTCSU directly (clocksync.UTCSUClock).
	// Experiment E8 substitutes baseline.CounterClock here.
	ClockFactory func(u *utcsu.UTCSU) clocksync.Clock
	// GPS maps node index → receiver config for GPS-equipped nodes.
	GPS map[int]gps.Config
	// Adversary is the Byzantine attack specification (traitor nodes,
	// wide-area GNSS schedules, multi-source reference counts); the
	// zero value disables it entirely. Per-node roles derive from
	// (Seed, node id), so shard decomposition never perturbs who lies.
	Adversary adversary.Spec
	// BackgroundLoad injects competing KI/NI-style traffic at this
	// utilization (0..0.9).
	BackgroundLoad float64
	// Segments is the number of LAN segments: 0 or 1: one LAN; >= 2:
	// the WANs-of-LANs topology of paper footnote 2, segments chained
	// by gateway nodes. Nodes is the total regular-node count, split
	// evenly across the segments (it must divide). Each segment's
	// simulator is a shard of one conservatively synchronized
	// sim.Group. See sharded.go and DESIGN.md §8.
	Segments int
	// GatewaysPerLink is the number of redundant gateway nodes on each
	// inter-segment link of a sharded topology; 0 means Sync.F+1 (the
	// minimum that survives an f-trimming convergence function).
	GatewaysPerLink int
	// Serving describes the simulated client population querying the
	// cluster for time (internal/service): open-loop arrival streams
	// aggregated per node, feeding served-accuracy sketches. The zero
	// value (Clients == 0) disables serving entirely.
	Serving service.Config
	// Shards once chose how many worker goroutines ran the segments.
	//
	// Deprecated: the segments always run in turn on the calling
	// goroutine (DESIGN.md §8), so the field does nothing. New panics
	// on any value other than 0 or 1, so a request for parallelism is
	// never silently ignored.
	Shards int
	// Tracer, when non-nil, traces every layer of the cluster (media,
	// COMCOs, node kernels, synchronizers, GPS receivers, serving load,
	// adversary). A flat LAN observes through it directly; several
	// segments get one tracer per shard with its options, merged by
	// Trace. One Tracer belongs to exactly one cluster — like the
	// simulator, it is single-threaded state.
	Tracer *trace.Tracer
	// Telemetry, when non-nil, wires the runtime metrics registry
	// through every layer (kernel counters, bus gauges, sync histograms,
	// serving counters). A flat LAN uses it as its one shard's
	// registry. Several segments get one private registry per shard
	// (single-threaded, like per-shard tracers) and treat this one as
	// the driver-level registry; TelemetrySnapshot merges them.
	// One Registry belongs to exactly one cluster.
	Telemetry *telemetry.Registry
}

// Defaults returns a ready-to-run n-node configuration.
func Defaults(n int, seed uint64) Config {
	return Config{
		Nodes:  n,
		Seed:   seed,
		OscHz:  10e6,
		Medium: network.DefaultLAN(),
		Kernel: kernel.Config{Mode: kernel.ModeNTI, UseRxBaseLatch: true},
		// A priori delay bounds for a 10 Mb/s LAN with 64-byte CSPs:
		// serialization ≈ 51 µs + preamble + propagation + DMA terms.
		// MeasureDelay tightens these further.
		Sync: clocksync.Params{
			DelayMin: timefmt.DurationFromSeconds(40e-6),
			DelayMax: timefmt.DurationFromSeconds(120e-6),
			// Tolerate a proportional share of faulty nodes; discarding
			// the extreme intervals also de-noises the midpoint under
			// occasional CSP loss.
			F: DefaultF(n),
		},
	}
}

// Clone returns a deep copy safe for independent per-cell mutation in
// parameter sweeps: the GPS map and each receiver config's Faults slice
// are copied, so mutating one clone's GPS setup can never leak into
// another cell sharing the same base Config.
func (c Config) Clone() Config {
	out := c // copies every value field, including nested structs
	if c.GPS != nil {
		out.GPS = make(map[int]gps.Config, len(c.GPS))
		for i, rc := range c.GPS {
			rc.Faults = append([]gps.Fault(nil), rc.Faults...)
			out.GPS[i] = rc
		}
	}
	out.Adversary = c.Adversary.Clone()
	return out
}

// DefaultF is the default fault-tolerance degree for n nodes: (n−1)/3,
// capped at 5.
func DefaultF(n int) int {
	f := (n - 1) / 3
	if f > 5 {
		f = 5
	}
	return f
}

// Member is one node of the cluster.
type Member struct {
	Index int
	// Segment is the LAN segment index in a WANs-of-LANs topology
	// (-1 for gateway nodes); 0 for single-LAN clusters.
	Segment int
	// Shard is the segment simulator the member executes on (gateways
	// are homed on their lower-numbered adjacent segment's shard); 0 for
	// a flat LAN.
	Shard int
	U     *utcsu.UTCSU
	Node  *kernel.Node
	Sync  *clocksync.Synchronizer
}

// Cluster is the assembled system.
type Cluster struct {
	// Group is the conservative composition of the per-segment
	// simulators (one shard for a flat LAN). Drive it through the
	// cluster's Start/RunUntil/Now/EventCount; code that schedules its
	// own events uses the acting member's Node.Sim.
	Group *sim.Group
	// Media lists the segments' media, one per shard.
	Media   []*network.Medium
	Members []*Member
	// ServingGens are the per-node client-load generators (one per
	// regular node, in member order) when cfg.Serving enables a client
	// population; empty otherwise. See serving.go.
	ServingGens []*service.Generator
	adv         *adversary.Layer // nil without an adversary spec
	cfg         Config
}

// Traitor reports whether member index i is an adversarial node
// (always false on clusters without an adversary).
func (c *Cluster) Traitor(i int) bool { return c.adv.Traitor(i) }

// TraitorCount returns the number of adversarial nodes.
func (c *Cluster) TraitorCount() int { return len(c.adv.Traitors()) }

// AdversaryLies returns the total adversarial frame mutations delivered
// so far. Call only between RunUntil calls (barrier state, like
// telemetry).
func (c *Cluster) AdversaryLies() uint64 { return c.adv.LiesTold() }

// New builds the cluster: max(Segments, 1) LAN segments, each with its
// own simulator and medium, run as the shards of one sim.Group (segment
// topology: sharded.go, DESIGN.md §8). Each shard's simulator observes
// through its own tracer and telemetry registry, attached before
// anything is built on it; every component takes its handles from the
// simulator it runs on. A flat LAN is the one-segment case. It keeps the
// root seed, the node%d labels that name its RNG streams, and the
// configured Tracer and Telemetry as the shard's own scope, so it is the
// classic single-simulator LAN event for event. Synchronizers are
// created but not started; call Start (optionally after MeasureDelay
// has refined the bounds).
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	segs := max(cfg.Segments, 1)
	if cfg.Shards != 0 && cfg.Shards != 1 {
		panic(fmt.Sprintf("cluster: Config.Shards = %d, but Shards is deprecated and must be 0 or 1: segments always run sequentially", cfg.Shards))
	}
	if cfg.Nodes%segs != 0 {
		panic(fmt.Sprintf("cluster: %d nodes do not divide evenly over %d segments", cfg.Nodes, segs))
	}
	per := cfg.Nodes / segs
	gpl := cfg.GatewaysPerLink
	if gpl <= 0 {
		gpl = cfg.Sync.F + 1
	}
	if cfg.OscHz == 0 {
		cfg.OscHz = 10e6
	}
	if cfg.Sync.RhoPPB == 0 {
		cfg.Sync.RhoPPB = clocksync.DefaultRhoPPB
	}
	label := "node%d"
	if segs > 1 {
		label = "wol%d"
	}

	sims := make([]*sim.Simulator, segs)
	media := make([]*network.Medium, segs)
	for i := range sims {
		seed, tr, reg := cfg.Seed, cfg.Tracer, cfg.Telemetry
		if segs > 1 {
			seed = sim.DeriveSeed(cfg.Seed, fmt.Sprintf("shard/%d", i))
			if tr != nil {
				tr = trace.New(cfg.Tracer.Options())
				tr.SetShard(i)
			}
			if reg != nil {
				// One private registry per shard, updated only by that
				// shard's single-threaded simulator — the trace-ring pattern.
				reg = telemetry.New()
				reg.SetShard(i)
			}
		}
		sims[i] = sim.New(seed)
		sims[i].Observe(tr, reg)
		media[i] = network.NewMedium(sims[i], cfg.Medium)
	}
	// The WAN delay is the lookahead between segments. A flat LAN has no
	// cross-shard link, so nothing bounds its window: each RunUntil is
	// one window, as on a bare simulator (1 ms windows cost a 2-node LAN
	// over half its speed).
	lookahead := math.Inf(1)
	if segs > 1 {
		lookahead = DefaultWANDelayS
	}
	group := sim.NewGroup(lookahead, sims)
	if cfg.Telemetry != nil && segs > 1 {
		// Driver-level metrics (windows, flush sizes, imbalance) go on
		// the cluster's own registry — only touched between windows.
		group.SetTelemetry(cfg.Telemetry)
	}
	c := &Cluster{Group: group, Media: media, cfg: cfg}
	c.adv = adversary.NewLayer(cfg.Adversary, cfg.Seed, cfg.Nodes)

	mkNode := func(shard int, bus network.Bus, segment int) *Member {
		id := len(c.Members)
		name := fmt.Sprintf(label, id)
		s := sims[shard]
		oc := oscillator.TCXO(cfg.OscHz)
		if cfg.IdealOscillators {
			oc = oscillator.Ideal(cfg.OscHz)
		}
		osc := oscillator.New(s, oc, name)
		u := utcsu.New(s, osc)
		// The adversary sits between the bus and the node's COMCO (the
		// identity when nobody attacks): lies are applied at delivery on
		// the receiver's shard, so the decomposition never changes what
		// any node hears.
		bus = c.adv.WrapBus(bus, id, s)
		node := kernel.NewNode(s, uint16(id), u, bus, cfg.Kernel)
		m := &Member{Index: id, Segment: segment, Shard: shard, U: u, Node: node}
		var clk clocksync.Clock = clocksync.UTCSUClock{UTCSU: u}
		if cfg.ClockFactory != nil {
			clk = cfg.ClockFactory(u)
		}
		m.Sync = clocksync.New(node, clk, cfg.Sync)
		if gc, hasGPS := cfg.GPS[id]; hasGPS {
			attachReferences(m, gc, name, &cfg)
		}
		c.Members = append(c.Members, m)
		return m
	}
	for seg := 0; seg < segs; seg++ {
		for i := 0; i < per; i++ {
			mkNode(seg, media[seg], seg)
		}
	}

	rw := relayRewrite(cfg.Sync.RhoPPB)
	for home := 0; home+1 < segs; home++ {
		remote := home + 1
		for g := 0; g < gpl; g++ {
			gw := mkNode(home, media[home], -1)
			l := &wanLink{group: group, home: home, remote: remote, sims: sims}
			l.port = network.NewLinkPort(media[home], l.up, rw)
			l.relay = network.NewRelay(media[remote], l.down, rw)
			// The gateway's WAN-facing channel gets the same adversary
			// tap as its LAN channel: traitors on the remote segment lie
			// to the gateway too.
			gw.Node.AttachSegment(c.adv.WrapBus(l.port, gw.Index, sims[home]))
		}
	}

	if cfg.BackgroundLoad > 0 {
		for _, med := range media {
			med.StartBackgroundLoad(cfg.BackgroundLoad, 400)
		}
	}
	c.attachServing()
	return c
}

// attachReferences wires member m's GNSS reference sources: the
// classic single receiver on GPS stamp unit 0 plus, under multi-source
// trust (Adversary.Sources >= 2), additional independent receivers on
// the UTCSU's spare stamp units. Each source gets the wide-area GNSS
// attack schedule lowered into its fault list (a no-op without one),
// and each extra receiver derives its noise stream from its own label,
// so source streams are mutually independent and shard-invariant.
func attachReferences(m *Member, gc gps.Config, label string, cfg *Config) {
	rho := cfg.Sync.RhoPPB
	acc := timefmt.DurationFromSeconds(gps.ClaimedAccuracyS)
	sources := cfg.Adversary.Sources
	if sources < 1 {
		sources = 1
	}
	if sources > utcsu.NumGPU {
		sources = utcsu.NumGPU
	}
	for src := 0; src < sources; src++ {
		sc := gc
		sc.Faults = cfg.Adversary.SourceFaults(src, gc.Faults)
		name := label
		if src > 0 {
			name = fmt.Sprintf("%s/src%d", label, src)
		}
		att := clocksync.AttachGPS(m.Node, src, acc, rho)
		gps.New(m.Node.Sim, sc, name, m.Index, att.OnPulse)
		m.Sync.AddExternal(att.Interval)
	}
}

// Start launches every synchronizer at the given simulated time. Each
// shard gets its own start event covering the members homed on it.
func (c *Cluster) Start(at float64) {
	for i := 0; i < c.Group.Shards(); i++ {
		shard := i
		c.Group.Shard(shard).At(at, func() {
			for _, m := range c.Members {
				if m.Shard == shard {
					m.Sync.Start()
				}
			}
		})
	}
}

// RunUntil advances every shard to the horizon and returns the reached
// time.
func (c *Cluster) RunUntil(horizon float64) float64 { return c.Group.RunUntil(horizon) }

// Now returns the current simulated time.
func (c *Cluster) Now() float64 { return c.Group.Now() }

// EventCount returns events fired so far, summed over shards.
func (c *Cluster) EventCount() uint64 { return c.Group.EventCount() }

// Trace returns the cluster's event trace: the configured tracer for a
// flat LAN, or the shards' tracers merged into canonical (time, shard,
// sequence) order for several segments. Nil when tracing is off.
func (c *Cluster) Trace() *trace.Tracer {
	if c.cfg.Tracer == nil || c.Group.Shards() == 1 {
		return c.cfg.Tracer
	}
	ts := make([]*trace.Tracer, c.Group.Shards())
	for i := range ts {
		ts[i] = c.Group.Shard(i).Tracer()
	}
	return trace.MergeShards(ts)
}

// Sample is one simultaneous observation of a set of members, read
// through their SNU snapshots (paper §3.3).
type Sample struct {
	// Precision is max_{p,q} |C_p − C_q| (0 below two members).
	Precision float64
	// MaxAbsOffset is max_p |C_p − t|, the worst accuracy.
	MaxAbsOffset float64
	// MeanWidth is the mean accuracy-interval width α⁻+α⁺.
	MeanWidth float64
	// Violations counts the members whose accuracy interval misses real
	// time (requirement (A) of paper §2).
	Violations int
	// Contained reports Violations == 0.
	Contained bool
}

// Observe reads each member's snapshot once and reduces them to the
// paper's figures of merit. It allocates nothing.
func Observe(ms []*Member) Sample {
	var s Sample
	lo, hi := math.Inf(1), math.Inf(-1)
	var width float64
	for _, m := range ms {
		snap := m.U.Snapshot()
		off := snap.Offset()
		am, ap := snap.AlphaMinus.Duration().Seconds(), snap.AlphaPlus.Duration().Seconds()
		lo, hi = math.Min(lo, off), math.Max(hi, off)
		s.MaxAbsOffset = math.Max(s.MaxAbsOffset, math.Abs(off))
		if off-am > 0 || off+ap < 0 {
			s.Violations++
		}
		width += am + ap
	}
	if len(ms) > 1 {
		s.Precision = hi - lo
	}
	if len(ms) > 0 {
		s.MeanWidth = width / float64(len(ms))
	}
	s.Contained = s.Violations == 0
	return s
}

// Snapshot observes every member: Observe(c.Members).
func (c *Cluster) Snapshot() Sample { return Observe(c.Members) }

// TelemetrySnapshot merges the cluster's registries (the configured one
// plus, for several segments, the per-shard registries) into one
// sim-time Snapshot. ok is false when the cluster was built without
// telemetry. Call only between RunUntil calls — registries are barrier
// state.
func (c *Cluster) TelemetrySnapshot() (telemetry.Snapshot, bool) {
	if c.cfg.Telemetry == nil {
		return telemetry.Snapshot{}, false
	}
	var regs []*telemetry.Registry
	if c.Group.Shards() > 1 {
		// The driver-level registry; a flat LAN's one shard already
		// observes through the configured registry.
		regs = append(regs, c.cfg.Telemetry)
	}
	for i := 0; i < c.Group.Shards(); i++ {
		regs = append(regs, c.Group.Shard(i).Telemetry())
	}
	return telemetry.Capture(c.Now(), regs...), true
}

// MeasureDelay runs a round-trip campaign between members a and b,
// loads the bounds into every member's synchronizer and returns them
// (completing the simulation work synchronously). Call before Start. A
// campaign that stalls on lost frames, or yields no usable sample,
// loads the a-priori [Sync.DelayMin, Sync.DelayMax] with the samples it
// did take.
func (c *Cluster) MeasureDelay(a, b, probes int) clocksync.DelayBounds {
	if c.Members[a].Shard != c.Members[b].Shard {
		panic("cluster: MeasureDelay probes cannot cross shards (RTT unicast is segment-local)")
	}
	c.Members[b].Node.EnableRTTResponder()
	var res clocksync.DelayBounds
	done := false
	samples := clocksync.MeasureDelay(c.Members[a].Node, c.Members[b].Node, c.cfg.Sync.RhoPPB, probes, func(b clocksync.DelayBounds) {
		res = b
		done = true
	})
	deadline := c.Now() + 60
	for !done && c.Now() < deadline {
		c.RunUntil(c.Now() + 0.5)
	}
	// Re-install the synchronizers' CI handlers that MeasureDelay
	// displaced on member a.
	c.Members[a].Sync.ReinstallHandler()
	if !done || res.Samples == 0 {
		res = clocksync.DelayBounds{Min: c.cfg.Sync.DelayMin, Max: c.cfg.Sync.DelayMax, Samples: samples()}
	}
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(res)
	}
	return res
}
