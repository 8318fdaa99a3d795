// Package trace is the deterministic cross-layer event-tracing
// subsystem: every layer of the simulated timestamping data path — the
// medium, the COMCO's DMA engine, the kernel software, the
// synchronization algorithm and the GPS receivers — emits fixed-size
// records into per-node ring buffers owned by one Tracer per simulation.
//
// The hot path is allocation-free: records are plain values written
// into preallocated rings (the ring for a node is allocated once, on
// that node's first record), and a nil *Tracer is the no-op sink every
// component starts with, so disabled tracing costs one predictable
// branch per instrumentation site and zero allocations.
//
// Traces are byte-deterministic: records carry simulated time and a
// global emission sequence number, both of which depend only on the
// seed — never on wall clock, worker count or goroutine scheduling —
// so the exported bytes of a cell's trace are identical at 1 worker
// and at N. The exporters (JSONL and Chrome/Perfetto trace-event JSON,
// see export.go) preserve that by iterating in sequence order with
// fixed formatting.
package trace

import (
	"fmt"
	"sort"
)

// Kind identifies what a Record describes. The A/B/V fields are
// kind-specific (see the per-kind comments); A carries the frame id
// for every kind on the CSP flight path, which is what links a CSP's
// send → trigger → DMA → arrival chain into one flow.
type Kind uint8

const (
	// KindFrameTx: serialization of a frame began on the medium
	// (node = src station, A = frame, B = payload bytes, V = duration s).
	KindFrameTx Kind = iota
	// KindFrameLost: the frame was serialized into a partitioned
	// medium — cable fault or switch outage — and reached no station
	// (node = src station, A = frame, B = payload bytes, V = duration s).
	KindFrameLost
	// KindFrameRx: the last bit of a frame arrived at one station
	// (node = receiver station, A = frame, B = 1 if CRC-corrupt).
	KindFrameRx
	// KindDMAWord: one timed 32-bit COMCO DMA transfer (A = frame,
	// B = NTI address). Only recorded when Options.DMAWords is set.
	KindDMAWord
	// KindTxTrigger: the COMCO read the transmit trigger word — the
	// TRANSMIT timestamp was sampled and latched (A = frame, B = NTI
	// address).
	KindTxTrigger
	// KindRxTrigger: the COMCO wrote the receive trigger word — the
	// RECEIVE timestamp was sampled and the header base latched
	// (A = frame, B = NTI address).
	KindRxTrigger
	// KindRxDone: the frame is fully stored in NTI memory; the real
	// chip would raise its reception interrupt now (A = frame,
	// B = header base).
	KindRxDone
	// KindLatchRead: the stamp-move ISR consumed a receive sample
	// (A = SSU sample sequence, B = latched header base, V = stamp s).
	KindLatchRead
	// KindCSPSend: the kernel handed a CSP to the COMCO
	// (A = frame, B = round).
	KindCSPSend
	// KindCSPArrival: the CI delivered a CSP to the synchronization
	// algorithm (A = frame, B = round, V = receive stamp s; V = 0 when
	// the hardware stamp was lost).
	KindCSPArrival
	// KindRoundStart: the synchronizer broadcast its round-k CSP
	// (A = round).
	KindRoundStart
	// KindRoundUpdate: the convergence function was applied and the
	// clock corrected (A = round, B = intervals fused, V = correction s).
	KindRoundUpdate
	// KindRoundFail: the convergence function failed — too few
	// intervals intersected (A = round, B = intervals offered).
	KindRoundFail
	// KindRateAdjust: the rate-synchronization layer applied a rate
	// correction (A = round, V = correction ppb).
	KindRateAdjust
	// KindFaultOnset: a GPS receiver fault episode began
	// (B = gps.FaultKind, V = magnitude).
	KindFaultOnset
	// KindFaultClear: a GPS receiver fault episode ended
	// (B = gps.FaultKind of the cleared episode).
	KindFaultClear
	// KindDiscipline: the clock discipline turned one round's samples
	// into a proposed correction (A = round, B = discipline wire ID —
	// see discipline.NameOf — V = proposed correction in seconds,
	// before clock validation).
	KindDiscipline
	// KindQueryServed: a serving node answered one tick's batch of
	// client time queries (A = queries in the batch, V = absolute clock
	// error each of them observed, in seconds).
	KindQueryServed
	// KindLie: the adversary mutated a CSP in flight before delivery to
	// this node (A = frame ID, B = lying source node, V = stamp shift
	// in seconds).
	KindLie

	numKinds
)

// kindNames are the stable wire names used by the JSONL schema and the
// analyzers. Renaming one is a trace-format change (regenerate goldens).
var kindNames = [numKinds]string{
	KindFrameTx:     "frame-tx",
	KindFrameLost:   "frame-lost",
	KindFrameRx:     "frame-rx",
	KindDMAWord:     "dma-word",
	KindTxTrigger:   "tx-trigger",
	KindRxTrigger:   "rx-trigger",
	KindRxDone:      "rx-done",
	KindLatchRead:   "latch-read",
	KindCSPSend:     "csp-send",
	KindCSPArrival:  "csp-arrival",
	KindRoundStart:  "round-start",
	KindRoundUpdate: "round-update",
	KindRoundFail:   "round-fail",
	KindRateAdjust:  "rate-adjust",
	KindFaultOnset:  "fault-onset",
	KindFaultClear:  "fault-clear",
	KindDiscipline:  "disc-step",
	KindQueryServed: "query-served",
	KindLie:         "lie",
}

// kindArgs labels the A/B/V payload of each kind for the text
// formatter; an empty label omits the field.
var kindArgs = [numKinds][3]string{
	KindFrameTx:     {"frame", "bytes", "dur"},
	KindFrameLost:   {"frame", "bytes", "dur"},
	KindFrameRx:     {"frame", "corrupt", ""},
	KindDMAWord:     {"frame", "addr", ""},
	KindTxTrigger:   {"frame", "addr", ""},
	KindRxTrigger:   {"frame", "addr", ""},
	KindRxDone:      {"frame", "base", ""},
	KindLatchRead:   {"seq", "base", "stamp"},
	KindCSPSend:     {"frame", "round", ""},
	KindCSPArrival:  {"frame", "round", "stamp"},
	KindRoundStart:  {"round", "", ""},
	KindRoundUpdate: {"round", "intervals", "corr"},
	KindRoundFail:   {"round", "intervals", ""},
	KindRateAdjust:  {"round", "", "ppb"},
	KindFaultOnset:  {"", "fault", "mag"},
	KindFaultClear:  {"", "fault", ""},
	KindDiscipline:  {"round", "disc", "corr"},
	KindQueryServed: {"queries", "", "err"},
	KindLie:         {"frame", "src", "delta"},
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromName resolves a wire name back to its Kind.
func KindFromName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Record is one fixed-size trace event. Records are plain values —
// emitting one never allocates once its node's ring exists.
type Record struct {
	// T is the simulated time of the event in seconds.
	T float64
	// Seq is the global emission order within the Tracer; exports are
	// sorted by it, which reproduces exactly the single-threaded
	// execution order of the owning simulation.
	Seq uint64
	// A and B are kind-specific integer payloads (see the Kind docs);
	// A is the frame id on every flight-path kind.
	A, B uint64
	// V is the kind-specific float payload (durations, stamps, ppb).
	V float64
	// Node is the emitting node/station id; -1 for the simulation
	// kernel and the medium itself, -2 for background-load frames.
	Node int32
	// Shard is the sub-simulator the record was emitted on in a
	// sharded (WANs-of-LANs) run, or -1 for unsharded simulations.
	// Stamped from the tracer's SetShard value at emission.
	Shard int16
	// Ch is the NTI channel for multi-segment (gateway) nodes.
	Ch   int8
	Kind Kind
}

// String renders the record as one logic-analyzer-style text line.
func (r Record) String() string {
	s := fmt.Sprintf("t=%.9f node=%-2d", r.T, r.Node)
	if r.Ch != 0 {
		s += fmt.Sprintf(" ch=%d", r.Ch)
	}
	s += fmt.Sprintf(" %-12s", r.Kind.String())
	labels := [3]string{}
	if int(r.Kind) < len(kindArgs) {
		labels = kindArgs[r.Kind]
	}
	if labels[0] != "" {
		s += fmt.Sprintf(" %s=%d", labels[0], r.A)
	}
	if labels[1] != "" {
		if labels[1] == "addr" || labels[1] == "base" {
			s += fmt.Sprintf(" %s=0x%05X", labels[1], r.B)
		} else {
			s += fmt.Sprintf(" %s=%d", labels[1], r.B)
		}
	}
	if labels[2] != "" {
		s += fmt.Sprintf(" %s=%.9f", labels[2], r.V)
	}
	return s
}

// Options tunes a Tracer.
type Options struct {
	// RingCap is the per-node ring capacity in records; when a node
	// emits more, the oldest records are overwritten (and counted by
	// Dropped). Default 16384 (~1 MB/node).
	RingCap int
	// DMAWords records every 32-bit COMCO DMA transfer (KindDMAWord),
	// the full logic-analyzer view. Off by default: the word stream
	// would evict everything else from the rings; cmd/ntitrace turns it
	// on.
	DMAWords bool
}

// DefaultRingCap is the per-node ring capacity when Options.RingCap is
// zero.
const DefaultRingCap = 16384

// ring is one node's record buffer: a fixed-capacity circular array.
// buf is allocated once, at the node's first record.
type ring struct {
	buf []Record
	n   uint64 // total records emitted into this ring
}

// Tracer collects the records of one simulation. A nil *Tracer is a
// valid no-op sink: Emit on nil returns immediately, so components can
// hold an optional tracer without wrapper types. Tracer is not
// goroutine-safe — like the simulator that feeds it, it belongs to
// exactly one cell.
type Tracer struct {
	opts  Options
	seq   uint64
	shard int16
	rings []ring // indexed by node+2 (-2 = background, -1 = kernel/medium)
}

// New creates a Tracer.
func New(o Options) *Tracer {
	if o.RingCap <= 0 {
		o.RingCap = DefaultRingCap
	}
	return &Tracer{opts: o, shard: -1}
}

// SetShard tags every subsequently emitted record with the given shard
// id. Sharded clusters give each sub-simulator its own tracer (a
// Tracer, like a Simulator, is single-threaded state) and merge them
// afterwards with MergeShards; the tag records which sub-simulator an
// event executed on.
func (t *Tracer) SetShard(shard int) { t.shard = int16(shard) }

// Shard returns the tracer's shard tag (-1 when unsharded).
func (t *Tracer) Shard() int {
	if t == nil {
		return -1
	}
	return int(t.shard)
}

// Options returns the tracer's effective options (zero value when the
// tracer is nil, i.e. everything disabled).
func (t *Tracer) Options() Options {
	if t == nil {
		return Options{}
	}
	return t.opts
}

// Emit appends one record. Safe on a nil Tracer (no-op). The hot-path
// contract: after a node's first record, Emit performs no allocation.
func (t *Tracer) Emit(k Kind, now float64, node, ch int, a, b uint64, v float64) {
	if t == nil {
		return
	}
	idx := node + 2
	if idx < 0 {
		idx = 0
	}
	if idx >= len(t.rings) {
		t.rings = append(t.rings, make([]ring, idx+1-len(t.rings))...)
	}
	r := &t.rings[idx]
	if r.buf == nil {
		r.buf = make([]Record, t.opts.RingCap)
	}
	r.buf[r.n%uint64(len(r.buf))] = Record{
		T: now, Seq: t.seq, A: a, B: b, V: v,
		Node: int32(node), Shard: t.shard, Ch: int8(ch), Kind: k,
	}
	r.n++
	t.seq++
}

// emitRecord appends a prebuilt record, reassigning only its sequence
// number — the merge path of MergeShards.
func (t *Tracer) emitRecord(rec Record) {
	idx := int(rec.Node) + 2
	if idx < 0 {
		idx = 0
	}
	if idx >= len(t.rings) {
		t.rings = append(t.rings, make([]ring, idx+1-len(t.rings))...)
	}
	r := &t.rings[idx]
	if r.buf == nil {
		r.buf = make([]Record, t.opts.RingCap)
	}
	rec.Seq = t.seq
	r.buf[r.n%uint64(len(r.buf))] = rec
	r.n++
	t.seq++
}

// MergeShards merges per-shard tracers into one tracer whose emission
// order is the canonical serialization of the sharded run: records
// sorted by (time, shard, per-shard sequence) and re-sequenced. The
// order is a pure function of the per-shard streams, so merged
// exports are byte-identical regardless of worker count. Ring
// capacity is sized to retain every input record.
func MergeShards(ts []*Tracer) *Tracer {
	var opts Options
	total := 0
	for _, t := range ts {
		if t != nil {
			opts = t.opts
			total += t.Len()
		}
	}
	var all []Record
	all = make([]Record, 0, total)
	for _, t := range ts {
		all = append(all, t.Records()...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	opts.RingCap = total
	if opts.RingCap == 0 {
		opts.RingCap = 1
	}
	out := New(opts)
	for i := range all {
		out.emitRecord(all[i])
	}
	return out
}

// Len returns the number of records currently retained across all
// rings.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.rings {
		n += t.rings[i].live()
	}
	return n
}

// Dropped returns how many records were overwritten by ring
// wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var d uint64
	for i := range t.rings {
		r := &t.rings[i]
		d += r.n - uint64(r.live())
	}
	return d
}

func (r *ring) live() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Records returns the retained records of every ring merged into
// global emission order. The result is freshly allocated; the rings
// are left untouched (tracing may continue).
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, t.Len())
	for i := range t.rings {
		r := &t.rings[i]
		out = append(out, r.buf[:r.live()]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
