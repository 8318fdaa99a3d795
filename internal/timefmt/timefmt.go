// Package timefmt implements the UTCSU's externally visible time formats.
//
// The LTU maintains a 56-bit NTP-style fixed-point time: 32-bit integer
// seconds and a 24-bit fraction (paper §3.3). Software reads it as two
// atomic 32-bit words:
//
//   - the Timestamp: the 8 least-significant bits of the seconds together
//     with the full 24-bit fraction — resolution 2^-24 s ≈ 60 ns, wrapping
//     every 256 s;
//   - the Macrostamp: the remaining 24 most-significant bits of the seconds
//     along with an 8-bit checksum protecting the entire time information.
//
// Durations used by the synchronization algorithms are held in Granules,
// signed counts of the 2^-24 s clock granule.
package timefmt

import (
	"fmt"

	"ntisim/internal/fixpt"
)

// Granule is the visible clock granularity, 2^-24 s, in seconds.
const Granule = 1.0 / (1 << 24)

// Duration is a signed time span in 2^-24 s granules.
type Duration int64

// Duration constructors and conversions.

// DurationFromSeconds converts seconds to a Duration, rounding to nearest.
func DurationFromSeconds(s float64) Duration {
	if s >= 0 {
		return Duration(s*(1<<24) + 0.5)
	}
	return -Duration(-s*(1<<24) + 0.5)
}

// Seconds converts d to float64 seconds.
func (d Duration) Seconds() float64 { return float64(d) * Granule }

// Micros converts d to float64 microseconds.
func (d Duration) Micros() float64 { return d.Seconds() * 1e6 }

// Abs returns the absolute value of d.
func (d Duration) Abs() Duration {
	if d < 0 {
		return -d
	}
	return d
}

func (d Duration) String() string { return fmt.Sprintf("%.3fµs", d.Micros()) }

// Stamp is a full 56-bit UTCSU time reading: 32-bit seconds + 24-bit
// fraction, stored flat as a granule count. It is what software assembles
// from an atomic Timestamp+Macrostamp register pair.
type Stamp int64

// StampFromTime quantizes a fixpt time down to the 2^-24 s granule,
// exactly as the timestamp register latch does.
func StampFromTime(t fixpt.Time) Stamp {
	return Stamp(t.Sec<<24 | int64(t.Frac>>40))
}

// Time converts s back to a fixpt.Time at granule resolution.
func (s Stamp) Time() fixpt.Time {
	sec := int64(s) >> 24
	frac := uint64(s&0xFFFFFF) << 40
	return fixpt.FromSecFrac(sec, frac)
}

// Seconds converts s to float64 seconds.
func (s Stamp) Seconds() float64 { return float64(s) * Granule }

// Add returns s shifted by d granules.
func (s Stamp) Add(d Duration) Stamp { return s + Stamp(d) }

// Sub returns the span s - u as a Duration.
func (s Stamp) Sub(u Stamp) Duration { return Duration(s - u) }

func (s Stamp) String() string { return fmt.Sprintf("%.9fs", s.Seconds()) }

// Register words. The hardware exposes the 56-bit time as two 32-bit words.

// Words splits a Stamp into the Timestamp and Macrostamp register words.
// The Timestamp holds seconds<7:0> in its top byte and the 24-bit fraction
// below; the Macrostamp holds seconds<31:8> in its top 24 bits and an 8-bit
// checksum over the full 56-bit value in its low byte.
func (s Stamp) Words() (timestamp, macrostamp uint32) {
	sec := uint32(int64(s) >> 24)
	frac := uint32(s & 0xFFFFFF)
	timestamp = sec<<24 | frac
	macrostamp = (sec&0xFFFFFF00)<<0 | uint32(Checksum(s))
	return timestamp, macrostamp
}

// FromWords reassembles a Stamp from register words and verifies the
// checksum, returning ok=false on mismatch (a corrupted read).
func FromWords(timestamp, macrostamp uint32) (s Stamp, ok bool) {
	sec := (macrostamp & 0xFFFFFF00) | timestamp>>24
	frac := timestamp & 0xFFFFFF
	s = Stamp(int64(int32(sec))<<24 | int64(frac))
	return s, Checksum(s) == uint8(macrostamp&0xFF)
}

// Checksum computes the 8-bit checksum the BTU maintains over the 56-bit
// time value: a CRC-8 (polynomial x^8+x^2+x+1, initial value 0xFF, the
// seven bytes most significant first), which detects any burst error up
// to 8 bits and hence any single-byte corruption of the words. It runs
// on every stamp write and every CSP receive, so it looks up crc8Table
// once per byte instead of shifting bit by bit.
func Checksum(s Stamp) uint8 {
	v := uint64(s)
	var crc uint8 = 0xFF
	for i := 6; i >= 0; i-- {
		crc = crc8Table[crc^uint8(v>>(8*i))]
	}
	return crc
}

// crc8Table[b] is b shifted through the CRC-8 register eight times.
var crc8Table = func() (t [256]uint8) {
	for b := range t {
		crc := uint8(b)
		for range 8 {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return t
}()

// WrapPeriodSeconds is the wrap interval of the 32-bit Timestamp word
// (8 bits of seconds): 256 s.
const WrapPeriodSeconds = 256

// Alpha is a 16-bit accuracy register value in granules (2^-24 s), the
// format of the ACU's α- and α+ registers. Values saturate at the register
// width rather than wrapping (paper §3.3: "extra logic suppresses a
// wrap-around of α- and α+").
type Alpha uint16

// AlphaMax is the saturation bound of an accuracy register (~3.9 ms).
const AlphaMax Alpha = 0xFFFF

// AlphaFromDuration converts a non-negative duration to a saturating Alpha.
func AlphaFromDuration(d Duration) Alpha {
	if d < 0 {
		return 0
	}
	if d >= Duration(AlphaMax) {
		return AlphaMax
	}
	return Alpha(d)
}

// Duration converts a to a Duration in granules.
func (a Alpha) Duration() Duration { return Duration(a) }

// AddSat returns a+b with saturation at AlphaMax.
func (a Alpha) AddSat(b Alpha) Alpha {
	s := uint32(a) + uint32(b)
	if s > uint32(AlphaMax) {
		return AlphaMax
	}
	return Alpha(s)
}

func (a Alpha) String() string { return Duration(a).String() }
