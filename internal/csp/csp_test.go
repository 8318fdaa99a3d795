package csp

import (
	"testing"
	"testing/quick"

	"ntisim/internal/fixpt"
	"ntisim/internal/timefmt"
)

func samplePacket() Packet {
	p := Packet{
		Kind:     KindCSP,
		Node:     7,
		Dest:     0xFFFF,
		Round:    42,
		Seq:      1001,
		RatePPB:  -12345,
		TxAlphaM: 17,
		TxAlphaP: 23,
	}
	p.SetTxStamp(timefmt.StampFromTime(fix(123.456)))
	p.EchoReqTx = 111
	p.EchoReqRx = 222
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	b := p.Encode()
	if len(b) != HeaderSize {
		t.Fatalf("encoded size %d", len(b))
	}
	q, err := Decode(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestTxStampVerifies(t *testing.T) {
	p := samplePacket()
	s, ok := p.TxStamp()
	if !ok {
		t.Fatal("valid tx stamp rejected")
	}
	if s != timefmt.StampFromTime(fix(123.456)) {
		t.Errorf("stamp = %v", s)
	}
	p.TxMacroWord ^= 0xFF00
	if _, ok := p.TxStamp(); ok {
		t.Error("corrupted macrostamp accepted")
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); err != ErrShort {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	p := samplePacket()
	b := p.Encode()
	b[OffKind+1] = 99
	if _, err := Decode(b[:]); err != ErrVersion {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeChecksumCoversSoftwareFields(t *testing.T) {
	p := samplePacket()
	b := p.Encode()
	b[OffRound] ^= 0x01
	if _, err := Decode(b[:]); err != ErrChecksum {
		t.Errorf("corrupted round not caught: %v", err)
	}
}

func TestHardwareFieldsOutsideChecksum(t *testing.T) {
	// The NTI inserts the stamp block AFTER software computed the
	// checksum; mutating those bytes must not fail Decode. Same for the
	// receiver-written RxSave field.
	p := samplePacket()
	b := p.Encode()
	for _, off := range []int{OffTxTrig, OffTxStamp, OffTxMacro, OffTxAlpha, OffTxAlpha + 2, OffRxSave} {
		b[off] ^= 0xA5
		if _, err := Decode(b[:]); err != nil {
			t.Errorf("hardware write at 0x%02x broke decode: %v", off, err)
		}
	}
}

func TestOffsetsMatchPaper(t *testing.T) {
	// Paper §3.4: trigger on read of 0x14 in the transmit header; stamp
	// registers mapped at 0x18 and 0x20; receive trigger on write of
	// 0x1C; 64-byte headers.
	if OffTxTrig != 0x14 {
		t.Errorf("transmit trigger offset 0x%x, paper says 0x14", OffTxTrig)
	}
	if OffTxStamp != 0x18 || OffTxAlpha != 0x20 {
		t.Errorf("stamp mapping offsets 0x%x/0x%x, paper says 0x18/0x20", OffTxStamp, OffTxAlpha)
	}
	if RxTrigOffset != 0x1C {
		t.Errorf("receive trigger offset 0x%x, paper says 0x1C", RxTrigOffset)
	}
	if HeaderSize != 64 {
		t.Errorf("header size %d, paper says 64", HeaderSize)
	}
}

func TestKindString(t *testing.T) {
	if KindCSP.String() != "CSP" || KindRTTReq.String() != "RTTReq" || KindRTTResp.String() != "RTTResp" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should still format")
	}
}

// Property: encode/decode round-trips arbitrary field values.
func TestQuickRoundTrip(t *testing.T) {
	f := func(node, dest, seq uint16, round uint32, rate int32, am, ap uint16, tx int64, erx, etx int64) bool {
		p := Packet{
			Kind: KindRTTResp, Node: node, Dest: dest, Seq: seq, Round: round,
			RatePPB: rate, TxAlphaM: timefmt.Alpha(am), TxAlphaP: timefmt.Alpha(ap),
			EchoReqTx: timefmt.Stamp(etx), EchoReqRx: timefmt.Stamp(erx),
		}
		p.SetTxStamp(timefmt.Stamp(tx & (1<<55 - 1)))
		pp := p
		b := pp.Encode()
		q, err := Decode(b[:])
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: single-byte corruption of any software field is detected.
func TestQuickChecksumDetection(t *testing.T) {
	f := func(off uint8, x byte) bool {
		o := int(off) % OffTxTrig // software region before the trigger
		if x == 0 {
			x = 1
		}
		p := samplePacket()
		b := p.Encode()
		b[o] ^= x
		_, err := Decode(b[:])
		// Corrupting the version byte yields ErrVersion; anything else
		// must yield ErrChecksum.
		return err == ErrChecksum || (o == OffKind+1 && err == ErrVersion)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fix(s float64) fixpt.Time { return fixpt.FromSeconds(s) }

func TestFlagsRoundTrip(t *testing.T) {
	p := samplePacket()
	p.Flags = FlagPrimary
	img := p.Encode()
	q, err := Decode(img[:])
	if err != nil {
		t.Fatal(err)
	}
	if q.Flags&FlagPrimary == 0 {
		t.Error("primary flag lost on the wire")
	}
	// Flags live in the checksummed region: corruption is caught.
	b := p.Encode()
	b[OffFlags] ^= FlagPrimary
	if _, err := Decode(b[:]); err != ErrChecksum {
		t.Errorf("flag corruption not caught: %v", err)
	}
}

// TestShiftTxStamp: the shifted header decodes with only its stamp
// moved, in place or into a copy; a non-CSP header or an invalid stamp
// is left alone and nothing is appended.
func TestShiftTxStamp(t *testing.T) {
	p := samplePacket()
	img := p.Encode()
	d := timefmt.DurationFromSeconds(250e-6)
	want := p
	st, _ := p.TxStamp()
	want.SetTxStamp(st.Add(d))

	cp, ok := ShiftTxStamp(nil, img[:], d)
	if !ok || len(cp) != HeaderSize {
		t.Fatalf("copy: ok=%v len=%d", ok, len(cp))
	}
	if img != p.Encode() {
		t.Error("copying shift edited its source")
	}
	in := img
	if _, ok := ShiftTxStamp(in[:0], in[:], d); !ok {
		t.Fatal("in-place shift refused a valid stamp")
	}
	for name, b := range map[string][]byte{"copy": cp, "in place": in[:]} {
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}

	rtt := Packet{Kind: KindRTTReq}
	rtt.SetTxStamp(st)
	bad := p
	bad.TxMacroWord ^= 0xFF00
	for name, q := range map[string]Packet{"non-CSP": rtt, "invalid stamp": bad} {
		b := q.Encode()
		if out, ok := ShiftTxStamp(b[:0], b[:], d); ok || len(out) != 0 || b != q.Encode() {
			t.Errorf("%s: shifted (ok=%v, %d bytes appended)", name, ok, len(out))
		}
	}
	if out, ok := ShiftTxStamp(nil, img[:HeaderSize-1], d); ok || out != nil {
		t.Error("short header shifted")
	}
}
