package comco

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
	"ntisim/internal/utcsu"
)

// controller is the part of a COMCO the fuzz drives; the COMCO and the
// per-word reference both implement it.
type controller interface {
	Transmit(headerIdx int, dst int) uint64
	OnRxStored(fn func(fid uint64, headerBase uint32, corrupt bool))
	Stats() (tx, rx uint64)
}

// stored is one OnRxStored call.
type stored struct {
	t       float64
	fid     uint64
	base    uint32
	corrupt bool
}

// dmaWorld is stations on one medium, each an NTI with one controller,
// traced with every DMA word.
type dmaWorld struct {
	s    *sim.Simulator
	tr   *trace.Tracer
	ntis []*nti.NTI
	ctls []controller
	rx   [][]stored     // per station, in call order
	done map[uint64]int // frame id → receivers whose rx-done fired
}

func newDMAWorld(seed uint64, cfg network.MediumConfig, n int, ref bool) *dmaWorld {
	s := sim.New(seed)
	w := &dmaWorld{s: s, tr: trace.New(trace.Options{DMAWords: true}), rx: make([][]stored, n), done: map[uint64]int{}}
	s.Observe(w.tr, nil)
	med := network.NewMedium(s, cfg)
	for i := range n {
		label := fmt.Sprintf("st%d", i)
		m := nti.New(utcsu.New(s, oscillator.New(s, oscillator.TCXO(10e6), label)))
		var c controller
		if ref {
			c = newRefChannel(s, m, med, label, 0, i)
		} else {
			c = NewChannel(s, m, med, label, 0, i)
		}
		c.OnRxStored(func(fid uint64, base uint32, corrupt bool) {
			w.rx[i] = append(w.rx[i], stored{s.Now(), fid, base, corrupt})
			w.done[fid]++
		})
		w.ntis = append(w.ntis, m)
		w.ctls = append(w.ctls, c)
	}
	return w
}

// fuzzTxSlots is how many transmit slots per station a program uses,
// few enough that slots are reused while frames are in flight.
const fuzzTxSlots = 4

// FuzzDMABurst drives the COMCO and the per-word reference on two
// worlds built from one seed: 2–4 stations on one medium with a bit
// rate of 1 Mb/s–1 Gb/s (rate in thousandths of a decade above 1 Mb/s)
// and a CRC error rate of crc/255. A program interleaves CPU writes of
// random CSP images into idle transmit slots, broadcasts, CPU reads of
// receive slots whose rx-done has fired and time steps; no CPU access
// touches a slot with a pending burst. After every step and at the end
// the worlds must agree on every NTI's header SRAM, its receive sample
// registers and trigger counts, every controller's stats, the
// OnRxStored calls and the trace, which carries every word's time.
func FuzzDMABurst(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, rate uint16, crc, stations uint8, prog []byte) {
		runDMABurst(t, seed, rate, crc, stations, prog)
	})
}

func runDMABurst(t *testing.T, seed uint64, rate uint16, crc, stations uint8, prog []byte) {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	cfg := network.DefaultLAN()
	cfg.BitRateBps = 1e6 * math.Pow(10, float64(rate%3001)/1000)
	cfg.CRCErrorProb = float64(crc) / 255
	n := 2 + int(stations%3)
	got := newDMAWorld(seed, cfg, n, false)
	want := newDMAWorld(seed, cfg, n, true)
	// wire is one frame on the wire plus the gap behind it.
	wire := (float64(cfg.PreambleBits)+8*nti.HeaderSize)/cfg.BitRateBps + cfg.InterframeS

	// The schedule is kept on the reference world. A transmit slot is
	// busy from Transmit until every receiver's rx-done for its frame:
	// the last DMA read precedes the earliest of them. Receivers store
	// frames in transmit order, slot k of frame k, so station j's
	// frames completed … announced−1 are the pending ones.
	txFid := map[[2]int]uint64{}
	announced := make([]int, n)
	txIdle := func(st, slot int) bool {
		fid, ok := txFid[[2]int{st, slot}]
		return !ok || want.done[fid] == n-1
	}
	rxReadable := func(st, slot int) bool {
		completed := len(want.rx[st])
		if slot >= completed {
			return false // never stored
		}
		pending := announced[st] - completed
		return pending < nti.RxHeadersPerCh && (slot-completed+nti.RxHeadersPerCh)%nti.RxHeadersPerCh >= pending
	}
	settled := func() bool {
		for st := range n {
			if len(want.rx[st]) != announced[st] {
				return false
			}
		}
		return true
	}
	step := 0
	for len(prog) > 0 {
		switch next() % 4 {
		case 0: // CPU write of a random CSP image
			st, slot, r := int(next())%n, int(next())%fuzzTxSlots, next()
			if !txIdle(st, slot) {
				continue
			}
			img := randomCSP(uint64(r) | uint64(step)<<8)
			for _, w := range []*dmaWorld{got, want} {
				w.ntis[st].CPUWrite(nti.TxHeaderAddrCh(0, slot), img[:])
			}
		case 1: // broadcast a transmit slot
			st, slot := int(next())%n, int(next())%fuzzTxSlots
			if !txIdle(st, slot) {
				continue
			}
			gf, wf := got.ctls[st].Transmit(slot, network.Broadcast), want.ctls[st].Transmit(slot, network.Broadcast)
			if gf != wf {
				t.Fatalf("step %d: Transmit returned frame %d, reference %d", step, gf, wf)
			}
			txFid[[2]int{st, slot}] = wf
			for j := range n {
				if j != st {
					announced[j]++
				}
			}
		case 2: // CPU read of a stored receive slot
			st, slot := int(next())%n, int(next())%nti.RxHeadersPerCh
			if !rxReadable(st, slot) {
				continue
			}
			var g, w [nti.HeaderSize]byte
			got.ntis[st].CPURead(nti.RxHeaderAddrCh(0, slot), g[:])
			want.ntis[st].CPURead(nti.RxHeaderAddrCh(0, slot), w[:])
			if g != w {
				t.Fatalf("step %d: station %d rx slot %d reads\n%x\nreference\n%x", step, st, slot, g, w)
			}
		case 3: // advance time by up to eight frames on the wire
			until := want.s.Now() + float64(next())*wire/32
			got.s.RunUntil(until)
			want.s.RunUntil(until)
			step++
			compareDMAState(t, fmt.Sprintf("step %d (t=%.9f)", step, until), got, want)
		}
	}
	for i := 0; !settled() || !allIdle(n, txIdle); i++ {
		if i == 1000 {
			t.Fatalf("frames still in flight at %v s", want.s.Now())
		}
		until := want.s.Now() + 1e-3
		got.s.RunUntil(until)
		want.s.RunUntil(until)
	}
	compareDMAState(t, "end", got, want)
	compareDMATraces(t, got, want)
}

func allIdle(n int, idle func(st, slot int) bool) bool {
	for st := range n {
		for slot := range fuzzTxSlots {
			if !idle(st, slot) {
				return false
			}
		}
	}
	return true
}

// randomCSP returns the image of a CSP with random fields, its stamp
// block included (the sending NTI overwrites that on the wire).
func randomCSP(seed uint64) [nti.HeaderSize]byte {
	r := rand.New(rand.NewPCG(seed, 0))
	p := csp.Packet{
		Kind: csp.KindCSP, Node: uint16(r.Uint32()), Round: r.Uint32(), Seq: uint16(r.Uint32()),
		RatePPB: int32(r.Uint32()), Flags: uint8(r.Uint32()),
		TxStampWord: r.Uint32(), TxMacroWord: r.Uint32(),
		TxAlphaM: timefmt.Alpha(r.Uint32()), TxAlphaP: timefmt.Alpha(r.Uint32()),
		EchoReqTx: timefmt.Stamp(r.Int64()), EchoReqRx: timefmt.Stamp(r.Int64()),
	}
	return p.Encode()
}

// compareDMAState compares what a step can overwrite later: header
// SRAM, the receive sample registers, trigger and frame counts, and the
// OnRxStored calls so far.
func compareDMAState(t *testing.T, when string, got, want *dmaWorld) {
	t.Helper()
	var gm, wm [nti.TxHeadersSize + nti.RxHeadersSize]byte
	for st := range got.ntis {
		g, w := got.ntis[st], want.ntis[st]
		g.CPURead(nti.TxHeadersBase, gm[:])
		w.CPURead(nti.TxHeadersBase, wm[:])
		if i := firstDiff(gm[:], wm[:]); i >= 0 {
			t.Fatalf("%s: station %d header SRAM differs at %#x: %#x, reference %#x", when, st, i, gm[i], wm[i])
		}
		gs, gam, gap, gb, gq := g.ReadRxSampleCh(0)
		ws, wam, wap, wb, wq := w.ReadRxSampleCh(0)
		if gs != ws || gam != wam || gap != wap || gb != wb || gq != wq {
			t.Fatalf("%s: station %d rx sample (%v %v %v %#x %d), reference (%v %v %v %#x %d)", when, st, gs, gam, gap, gb, gq, ws, wam, wap, wb, wq)
		}
		gtx, grx := g.ChannelStats(0)
		wtx, wrx := w.ChannelStats(0)
		if gtx != wtx || grx != wrx {
			t.Fatalf("%s: station %d triggers tx %d rx %d, reference tx %d rx %d", when, st, gtx, grx, wtx, wrx)
		}
		gtx, grx = got.ctls[st].Stats()
		wtx, wrx = want.ctls[st].Stats()
		if gtx != wtx || grx != wrx {
			t.Fatalf("%s: station %d frames tx %d rx %d, reference tx %d rx %d", when, st, gtx, grx, wtx, wrx)
		}
		if !slices.Equal(got.rx[st], want.rx[st]) {
			t.Fatalf("%s: station %d OnRxStored\n%v\nreference\n%v", when, st, got.rx[st], want.rx[st])
		}
	}
}

// compareDMATraces compares the two trace streams record by record; the
// stream only grows, so comparing it once at the end suffices.
func compareDMATraces(t *testing.T, got, want *dmaWorld) {
	t.Helper()
	gr, wr := got.tr.Records(), want.tr.Records()
	for i := range min(len(gr), len(wr)) {
		if gr[i] != wr[i] {
			t.Fatalf("trace record %d is %v, reference %v", i, gr[i], wr[i])
		}
	}
	if len(gr) != len(wr) || got.tr.Dropped() != want.tr.Dropped() {
		t.Fatalf("%d trace records (%d dropped), reference %d (%d dropped)", len(gr), got.tr.Dropped(), len(wr), want.tr.Dropped())
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
