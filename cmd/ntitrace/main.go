// Command ntitrace walks one CSP through the complete Fig. 3 data path
// on a two-node system and dumps every timestamping-relevant artefact:
// the cross-layer trace of the flight (every DMA word included), the
// transmit header image before and after the COMCO's trigger reads, the
// receive header as stored by DMA, the NTI's latched registers and the
// reassembled stamps. It is the repository's equivalent of putting a
// logic analyzer on the MA-Module.
//
// The event stream comes from internal/trace — the same records the
// campaign harness archives — rendered one record per line. -json dumps
// the records as trace JSONL instead (the committed golden in testdata/
// pins this byte-deterministic output; main_test.go checks it, and
// `go test ./cmd/ntitrace -update` regenerates it).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ntisim/internal/cluster"
	"ntisim/internal/csp"
	"ntisim/internal/kernel"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its
// exit status: 0 on success, 1 when the trace fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntitrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 7, "random seed")
	at := fs.Float64("at", 0.5, "send time [sim s]")
	asJSON := fs.Bool("json", false, "emit the trace as JSONL on stdout (no prose)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	tr := trace.New(trace.Options{DMAWords: true})
	cfg := cluster.Defaults(2, *seed)
	cfg.Tracer = tr
	c := cluster.New(cfg)
	sender, receiver := c.Members[0], c.Members[1]

	var arrival *kernel.Arrival
	receiver.Node.OnCSP(func(ar kernel.Arrival) { arrival = &ar })

	// Build the CSP image in transmit header 0 ourselves so we can show
	// the before/after of the stamp block.
	p := csp.Packet{Kind: csp.KindCSP, Node: 0, Round: 1}
	img := p.Encode()
	sender.Node.Sim.At(*at, func() {
		sender.Node.NTI.CPUWrite(nti.TxHeaderAddrCh(0, 0), img[:])
		sender.Node.COMCO.Transmit(0, network.Broadcast)
	})
	c.RunUntil(*at + 1)

	if *asJSON {
		if err := tr.WriteJSONL(stdout); err != nil {
			fmt.Fprintf(stderr, "ntitrace: %v\n", err)
			return 1
		}
		if arrival == nil {
			fmt.Fprintln(stderr, "ntitrace: CSP never reached the CI — trace failed")
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "cross-layer trace (%d records, %d dropped):\n", tr.Len(), tr.Dropped())
	for _, r := range tr.Records() {
		fmt.Fprintln(stdout, "  "+r.String())
	}

	fmt.Fprintf(stdout, "\nCPU wrote CSP image into tx header 0 at t=%.6f (stamp block zero)\n", *at)
	dumpStampBlock(stdout, "  before", img[:])

	var after [nti.HeaderSize]byte
	sender.Node.NTI.CPURead(nti.TxHeaderAddrCh(0, 0), after[:])
	fmt.Fprintf(stdout, "\nafter transmission (memory unchanged; insertion happened on the wire path):\n")
	dumpStampBlock(stdout, "  memory", after[:])

	txTrig, _ := sender.Node.NTI.ChannelStats(0)
	_, rxTrig := receiver.Node.NTI.ChannelStats(0)
	fmt.Fprintf(stdout, "\nsender TRANSMIT triggers: %d   receiver RECEIVE triggers: %d\n", txTrig, rxTrig)

	st, am, ap, base, seq := receiver.Node.NTI.ReadRxSampleCh(0)
	fmt.Fprintf(stdout, "receiver SSU sample: stamp=%v alpha=-%v/+%v seq=%d latched header base=0x%05X\n",
		st, am, ap, seq, base)

	var rxHdr [nti.HeaderSize]byte
	receiver.Node.NTI.CPURead(base, rxHdr[:])
	fmt.Fprintf(stdout, "\nreceive header at 0x%05X as stored by DMA:\n", base)
	dumpHeader(stdout, rxHdr[:])

	if arrival == nil {
		fmt.Fprintln(stderr, "\nntitrace: CSP never reached the CI — trace failed")
		return 1
	}
	tx, ok := arrival.Pkt.TxStamp()
	fmt.Fprintf(stdout, "\nCI delivery at t=%.6f\n", arrival.At)
	fmt.Fprintf(stdout, "  tx stamp (inserted in flight): %v (checksum ok=%v)\n", tx, ok)
	fmt.Fprintf(stdout, "  tx alphas: -%v/+%v\n", arrival.Pkt.TxAlphaM, arrival.Pkt.TxAlphaP)
	fmt.Fprintf(stdout, "  rx stamp (latched + moved):    %v (attributed=%v)\n", arrival.RxStamp, arrival.StampOK)
	fmt.Fprintf(stdout, "  trigger-to-trigger delay:      %v\n", arrival.RxStamp.Sub(tx))
	return 0
}

func dumpStampBlock(w io.Writer, prefix string, b []byte) {
	fmt.Fprintf(w, "%s 0x14(trig)=%08X 0x18(ts)=%08X 0x1C(ms)=%08X 0x20(alpha)=%08X\n",
		prefix, be32(b[csp.OffTxTrig:]), be32(b[csp.OffTxStamp:]), be32(b[csp.OffTxMacro:]), be32(b[csp.OffTxAlpha:]))
}

func dumpHeader(w io.Writer, b []byte) {
	for off := 0; off < len(b); off += 16 {
		fmt.Fprintf(w, "  %04X:", off)
		for i := 0; i < 16; i += 4 {
			fmt.Fprintf(w, " %08X", be32(b[off+i:]))
		}
		fmt.Fprintln(w)
	}
	if ts, ms := be32(b[csp.OffTxStamp:]), be32(b[csp.OffTxMacro:]); ts != 0 || ms != 0 {
		if st, ok := timefmt.FromWords(ts, ms); ok {
			fmt.Fprintf(w, "  -> wire image carries tx stamp %v (checksum valid)\n", st)
		}
	}
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
