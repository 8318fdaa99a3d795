// Package csp defines the clock synchronization packet wire format.
//
// A CSP travels inside one link frame whose first 64 bytes are exactly
// the NTI's transmit/receive header (paper §3.4, Fig. 7): packet-specific
// control and routing information at fixed offsets, with the transmit
// time/accuracy stamp transparently inserted by the NTI hardware when the
// COMCO reads the trigger word at offset 0x14. The receiving NTI triggers
// its receive stamp when the COMCO writes offset 0x1C, and software (ISR)
// saves that stamp into the unused tail of the header.
//
// Offsets are part of the hardware/software contract and are tested
// byte-for-byte in package nti (experiment E9).
package csp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ntisim/internal/timefmt"
)

// Header layout (byte offsets within the 64-byte header).
const (
	OffKind    = 0x00 // packet kind (1 byte) + version (1 byte)
	OffNode    = 0x02 // sending node id (2 bytes)
	OffRound   = 0x04 // synchronization round number (4 bytes)
	OffDest    = 0x08 // destination node id (2 bytes)
	OffSeq     = 0x0A // per-sender sequence number (2 bytes)
	OffRate    = 0x0C // sender's rate adjustment in ppb (4 bytes, signed)
	OffFlags   = 0x10 // flag bits (1 byte) + 3 reserved
	OffTxTrig  = 0x14 // COMCO read here raises TRANSMIT (4 bytes, don't care)
	OffTxStamp = 0x18 // hardware-inserted transmit timestamp word
	OffTxMacro = 0x1C // hardware-inserted transmit macrostamp word
	OffTxAlpha = 0x20 // hardware-inserted α⁻|α⁺ (2+2 bytes)
	OffEcho    = 0x24 // RTT echo block: req tx stamp (8) + req rx stamp (8)
	OffRxSave  = 0x34 // receiver ISR saves its rx stamp here (8 bytes, not checksummed)
	OffCheck   = 0x3C // header checksum (4 bytes)
	HeaderSize = 0x40 // 64 bytes, matching the NTI's header sections
)

// RxTrigOffset is the offset within a *receive* header whose write by
// the COMCO raises the RECEIVE trigger (paper §3.4: "when the 82596CA
// writes offset 0x1C within a receive header upon reception of a CSP").
// In this model the receive header holds the same CSP image, so the
// trigger fires while the stamp words land in memory.
const RxTrigOffset = 0x1C

// Flag bits (OffFlags).
const (
	// FlagPrimary marks a CSP whose sender recently validated its clock
	// against an external UTC source (a GPS-equipped "primary" node);
	// secondaries may apply interval-based clock validation against the
	// carried interval.
	FlagPrimary uint8 = 1 << 0
)

// Kind enumerates packet types.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindCSP          // periodic round broadcast carrying A(t)
	KindRTTReq       // round-trip delay measurement probe
	KindRTTResp      // echo of a probe
	KindKernel       // pSOS+m Kernel Interface (KI) message
	KindNet          // pNA+ Network Interface (NI) message
)

func (k Kind) String() string {
	switch k {
	case KindCSP:
		return "CSP"
	case KindRTTReq:
		return "RTTReq"
	case KindRTTResp:
		return "RTTResp"
	case KindKernel:
		return "Kernel"
	case KindNet:
		return "Net"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// version is the wire format revision.
const version = 1

// Packet is the decoded form of a CSP.
type Packet struct {
	Kind  Kind
	Node  uint16 // sender
	Dest  uint16 // addressed node; broadcasts leave it 0
	Round uint32
	Seq   uint16

	// RatePPB carries the sender's current clock-rate adjustment for the
	// rate-synchronization algorithm [Scho97].
	RatePPB int32

	// Flags carries sender-role bits (FlagPrimary: the sender's interval
	// is anchored to a validated external UTC source).
	Flags uint8

	// Transmit stamp block — inserted by the sending NTI hardware, not
	// by software. TxStamp/TxMacro are the UTCSU register words; the
	// alphas are the ACU registers at the transmit trigger.
	TxStampWord uint32
	TxMacroWord uint32
	TxAlphaM    timefmt.Alpha
	TxAlphaP    timefmt.Alpha

	// Echo block for KindRTTResp: the probe's hardware transmit stamp
	// and the responder's hardware receive stamp of that probe.
	EchoReqTx timefmt.Stamp
	EchoReqRx timefmt.Stamp
}

// TxStamp reassembles the full 56-bit transmit stamp, verifying the
// macrostamp checksum.
func (p *Packet) TxStamp() (timefmt.Stamp, bool) {
	return timefmt.FromWords(p.TxStampWord, p.TxMacroWord)
}

// SetTxStamp splits a stamp into the hardware register words (used by
// the NTI model when performing transparent insertion).
func (p *Packet) SetTxStamp(s timefmt.Stamp) {
	p.TxStampWord, p.TxMacroWord = s.Words()
}

// Errors returned by Decode.
var (
	ErrShort    = errors.New("csp: packet shorter than header")
	ErrVersion  = errors.New("csp: unknown version")
	ErrChecksum = errors.New("csp: header checksum mismatch")
)

// Encode serializes p into a fresh HeaderSize-byte buffer.
func (p *Packet) Encode() []byte {
	b := make([]byte, HeaderSize)
	b[OffKind] = byte(p.Kind)
	b[OffKind+1] = version
	binary.BigEndian.PutUint16(b[OffNode:], p.Node)
	binary.BigEndian.PutUint32(b[OffRound:], p.Round)
	binary.BigEndian.PutUint16(b[OffDest:], p.Dest)
	binary.BigEndian.PutUint16(b[OffSeq:], p.Seq)
	binary.BigEndian.PutUint32(b[OffRate:], uint32(p.RatePPB))
	b[OffFlags] = p.Flags
	binary.BigEndian.PutUint32(b[OffTxStamp:], p.TxStampWord)
	binary.BigEndian.PutUint32(b[OffTxMacro:], p.TxMacroWord)
	binary.BigEndian.PutUint16(b[OffTxAlpha:], uint16(p.TxAlphaM))
	binary.BigEndian.PutUint16(b[OffTxAlpha+2:], uint16(p.TxAlphaP))
	binary.BigEndian.PutUint64(b[OffEcho:], uint64(p.EchoReqTx))
	binary.BigEndian.PutUint64(b[OffEcho+8:], uint64(p.EchoReqRx))
	binary.BigEndian.PutUint32(b[OffCheck:], headerCheck(b))
	return b
}

// Decode parses a header buffer. The stamp words inserted by hardware
// after software computed the checksum are excluded from the check, as
// the real driver must also arrange (the checksum covers the software-
// written fields only).
func Decode(b []byte) (Packet, error) {
	var p Packet
	if len(b) < HeaderSize {
		return p, ErrShort
	}
	if b[OffKind+1] != version {
		return p, ErrVersion
	}
	if binary.BigEndian.Uint32(b[OffCheck:]) != headerCheck(b) {
		return p, ErrChecksum
	}
	p.Kind = Kind(b[OffKind])
	p.Node = binary.BigEndian.Uint16(b[OffNode:])
	p.Round = binary.BigEndian.Uint32(b[OffRound:])
	p.Dest = binary.BigEndian.Uint16(b[OffDest:])
	p.Seq = binary.BigEndian.Uint16(b[OffSeq:])
	p.RatePPB = int32(binary.BigEndian.Uint32(b[OffRate:]))
	p.Flags = b[OffFlags]
	p.TxStampWord = binary.BigEndian.Uint32(b[OffTxStamp:])
	p.TxMacroWord = binary.BigEndian.Uint32(b[OffTxMacro:])
	p.TxAlphaM = timefmt.Alpha(binary.BigEndian.Uint16(b[OffTxAlpha:]))
	p.TxAlphaP = timefmt.Alpha(binary.BigEndian.Uint16(b[OffTxAlpha+2:]))
	p.EchoReqTx = timefmt.Stamp(binary.BigEndian.Uint64(b[OffEcho:]))
	p.EchoReqRx = timefmt.Stamp(binary.BigEndian.Uint64(b[OffEcho+8:]))
	return p, nil
}

// headerCheck is a FNV-32 over the software-written header region,
// skipping the hardware-inserted stamp block (0x14..0x23) and the
// checksum field itself.
func headerCheck(b []byte) uint32 {
	h := uint32(2166136261)
	mix := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h ^= uint32(b[i])
			h *= 16777619
		}
	}
	mix(0, OffTxTrig)
	// The echo block is software-written by the sender; RxSave (0x34) is
	// receiver-written after verification and must stay outside the check.
	mix(OffEcho, OffRxSave)
	return h
}
