package csp

import (
	"bytes"
	"testing"
)

// hardwareRanges are the header bytes written after software computed
// the checksum: the NTI's transmit stamp block and the receiver ISR's
// saved rx stamp.
var hardwareRanges = [][2]int{{OffTxTrig, OffEcho}, {OffRxSave, OffCheck}}

// FuzzDecode: hostile bytes yield a Packet or an error, never a panic.
// Whatever Decode accepts re-encodes to a header that decodes to the
// same Packet (Encode's checksum holds), and rewriting the hardware
// stamp words of an accepted header keeps it accepted with every
// software field intact — the property the adversary layer relies on
// when it forges stamps on the wire. Seed inputs live in
// testdata/fuzz/FuzzDecode and run as ordinary tests.
func FuzzDecode(f *testing.F) {
	// Encoded by the code under test, so a checksum change cannot make
	// every seed a rejected (vacuous) input.
	for _, k := range []Kind{KindCSP, KindRTTResp} {
		p := samplePacket()
		p.Kind = k
		img := p.Encode()
		f.Add(img[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		img := p.Encode()
		q, err := Decode(img[:])
		if err != nil || q != p {
			t.Fatalf("re-encoded header decodes to %+v, %v; want %+v", q, err, p)
		}

		forged := bytes.Clone(data[:HeaderSize])
		for _, r := range hardwareRanges {
			for i := r[0]; i < r[1]; i++ {
				forged[i] = ^forged[i]
			}
		}
		h, err := Decode(forged)
		if err != nil {
			t.Fatalf("rewriting the hardware stamp words broke the checksum: %v", err)
		}
		want := p
		want.TxStampWord, want.TxMacroWord = ^p.TxStampWord, ^p.TxMacroWord
		want.TxAlphaM, want.TxAlphaP = ^p.TxAlphaM, ^p.TxAlphaP
		if h != want {
			t.Fatalf("forged header decodes to %+v, want %+v", h, want)
		}
	})
}
