package experiments

import (
	"fmt"

	"ntisim/internal/cluster"
	"ntisim/internal/csp"
	"ntisim/internal/gps"
	"ntisim/internal/kernel"
	"ntisim/internal/metrics"
	"ntisim/internal/network"
)

// mapGPS builds a GPS config map with healthy receivers on the given
// node indices.
func mapGPS(idx ...int) map[int]gps.Config {
	m := map[int]gps.Config{}
	for _, i := range idx {
		m[i] = gps.DefaultReceiver()
	}
	return m
}

// E9TimestampPath walks one CSP through the Fig. 3/7 data path and
// checks it byte-for-byte: the TRANSMIT trigger at transmit-header
// offset 0x14, the transparent stamp insertion over 0x18/0x1C/0x20, the
// RECEIVE trigger at receive-header offset 0x1C, and a checksum-valid
// decode at the far end.
func E9TimestampPath(seed uint64) Result {
	r := Result{
		ID:         "E9",
		Title:      "packet timestamping data path (Fig. 3, Fig. 7)",
		PaperClaim: "§3.4: trigger on read of 0x14; stamp registers mapped at 0x18/0x20; RECEIVE on write of 0x1C; 64-byte headers",
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	cfg := cluster.Defaults(2, seed)
	cfg.IdealOscillators = true
	c := cluster.New(cfg)
	var got *kernel.Arrival
	c.Members[1].Node.OnCSP(func(ar kernel.Arrival) { got = &ar })
	c.Members[0].Node.Sim.After(0.5, func() {
		c.Members[0].Node.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: 99}, network.Broadcast)
	})
	c.RunUntil(2)

	r.Table.Header = []string{"checkpoint", "value"}
	ok := got != nil
	r.Claims["CSP delivered through the CI"] = ok
	if ok {
		tx, txOK := got.Pkt.TxStamp()
		r.Claims["transmit stamp inserted in flight, checksum valid"] = txOK
		r.Claims["receive stamp attributed via header-base latch"] = got.StampOK
		gap := got.RxStamp.Sub(tx).Seconds()
		r.Claims["rx-tx gap equals the wire+DMA path (40..90 µs)"] = gap > 40e-6 && gap < 90e-6
		r.Numbers["gap"] = gap
		r.Table.AddRow("tx trigger offset", fmt.Sprintf("0x%02X", csp.OffTxTrig))
		r.Table.AddRow("stamp mapping offsets", fmt.Sprintf("0x%02X/0x%02X/0x%02X", csp.OffTxStamp, csp.OffTxMacro, csp.OffTxAlpha))
		r.Table.AddRow("rx trigger offset", fmt.Sprintf("0x%02X", csp.RxTrigOffset))
		r.Table.AddRow("tx stamp [s]", fmt.Sprintf("%.9f", tx.Seconds()))
		r.Table.AddRow("rx stamp [s]", fmt.Sprintf("%.9f", got.RxStamp.Seconds()))
		r.Table.AddRow("trigger-to-trigger gap [µs]", metrics.Us(gap))
		txTrig, _, _ := c.Members[0].Node.NTI.Stats()
		_, rxTrig, _ := c.Members[1].Node.NTI.Stats()
		r.Claims["exactly one TRANSMIT and one RECEIVE trigger"] = txTrig == 1 && rxTrig == 1
	}
	r.Claims["offsets match the paper"] =
		csp.OffTxTrig == 0x14 && csp.OffTxStamp == 0x18 && csp.OffTxAlpha == 0x20 &&
			csp.RxTrigOffset == 0x1C && csp.HeaderSize == 64
	return r
}

// E10BackToBack reproduces footnote 4: without the Receive Header Base
// register, the stamp-move ISR must guess which receive header a
// sampled timestamp belongs to; under back-to-back CSPs the guess
// misattributes stamps (the rx−tx gap jumps by a full frame slot),
// while the hardware latch keeps every surviving stamp attributed
// exactly.
func E10BackToBack(seed uint64) Result {
	r := Result{
		ID:         "E10",
		Title:      "back-to-back CSPs: Receive Header Base latch vs software guessing",
		PaperClaim: "footnote 4: sequential-order schemes do not work in general; the NTI latches the header base at the RECEIVE trigger",
		Claims:     map[string]bool{},
		Numbers:    map[string]float64{},
	}
	r.Table.Header = []string{"association", "delivered", "stamped", "misattributed"}

	run := func(useLatch bool) (delivered, stamped, misattributed int) {
		cfg := cluster.Defaults(3, seed)
		cfg.Kernel.UseRxBaseLatch = useLatch
		cfg.IdealOscillators = true
		c := cluster.New(cfg)
		c.Members[0].Node.OnCSP(func(ar kernel.Arrival) {
			delivered++
			if !ar.StampOK {
				return
			}
			stamped++
			tx, ok := ar.Pkt.TxStamp()
			if !ok {
				return
			}
			// The true trigger-to-trigger delay is ~59 µs ± sub-µs; a
			// misattributed stamp is off by at least one frame slot.
			gap := ar.RxStamp.Sub(tx).Seconds()
			if gap < 40e-6 || gap > 90e-6 {
				misattributed++
			}
		})
		for i := 0; i < 150; i++ {
			i := i
			c.Members[1].Node.Sim.After(0.01+float64(i)*0.005, func() {
				// Two CSPs back to back from different senders.
				c.Members[1].Node.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: uint32(i)}, network.Broadcast)
				c.Members[2].Node.SendCSP(csp.Packet{Kind: csp.KindCSP, Round: uint32(i)}, network.Broadcast)
			})
		}
		c.RunUntil(2)
		return delivered, stamped, misattributed
	}

	dL, sL, mL := run(true)
	dG, sG, mG := run(false)
	r.Table.AddRow("hardware latch", fmt.Sprint(dL), fmt.Sprint(sL), fmt.Sprint(mL))
	r.Table.AddRow("software guess", fmt.Sprint(dG), fmt.Sprint(sG), fmt.Sprint(mG))
	r.Numbers["latch_misattributed"] = float64(mL)
	r.Numbers["guess_misattributed"] = float64(mG)
	r.Claims["latch never misattributes"] = mL == 0
	r.Claims["guessing misattributes under bursts"] = mG > 0
	r.Claims["both deliver the traffic"] = dL > 250 && dG > 250
	return r
}
