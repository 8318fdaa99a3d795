package network

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ntisim/internal/sim"
)

// lentBuf is one buffer of the owner's pool with its done hook bound
// once, as a pooled sender builds it.
type lentBuf struct {
	o    *owner
	b    []byte
	lent bool
	done func()
}

// owner is a pooled test sender that holds the bus to the ownership
// rule: when a done hook fires it poisons the buffer and reuses it for
// the next send, so a bus that reads a payload after handing it back
// shows the poison (or a later frame's bytes) to some receiver.
type owner struct {
	t       *testing.T
	free    []*lentBuf
	lens    map[uint32]int // sequence number → payload length
	seq     uint32
	pending int
}

const poison = 0xDE

// fill takes a buffer and writes frame seq's pattern of n bytes: the
// sequence number, then bytes that depend on both it and the offset.
func (o *owner) fill(n int) *lentBuf {
	b := pop(&o.free)
	if b == nil {
		b = &lentBuf{o: o}
		b.done = b.release
	}
	if b.lent {
		o.t.Fatal("a lent buffer came back on the free list")
	}
	o.seq++
	b.b = b.b[:0]
	for i := 0; i < n; i++ {
		b.b = append(b.b, pattern(o.seq, i))
	}
	binary.BigEndian.PutUint32(b.b, o.seq)
	o.lens[o.seq] = n
	b.lent = true
	o.pending++
	return b
}

func pattern(seq uint32, i int) byte { return byte(seq*7 + uint32(i)*13 + 1) }

func (b *lentBuf) release() {
	if !b.lent {
		b.o.t.Fatal("done hook fired twice for one send")
	}
	b.lent = false
	b.o.pending--
	for i := range b.b {
		b.b[i] = poison
	}
	b.o.free = append(b.o.free, b)
}

// checker is a station that verifies, during FrameArrived only, that
// the payload holds the bytes its sender wrote.
type checker struct {
	o    *owner
	name string
}

func (c *checker) FrameArrived(f Frame) {
	if len(f.Payload) < 4 {
		c.o.t.Fatalf("%s: frame %d arrived with %d payload bytes", c.name, f.ID, len(f.Payload))
	}
	seq := binary.BigEndian.Uint32(f.Payload)
	n, ok := c.o.lens[seq]
	if !ok || n != len(f.Payload) {
		c.o.t.Fatalf("%s: frame %d carries sequence %#x (%d bytes), which no sender wrote", c.name, f.ID, seq, len(f.Payload))
	}
	for i := 4; i < n; i++ {
		if f.Payload[i] != pattern(seq, i) {
			c.o.t.Fatalf("%s: frame %d (sequence %d) byte %d is %#x, sent %#x", c.name, f.ID, seq, i, f.Payload[i], pattern(seq, i))
		}
	}
}

// FuzzFrameOwnership checks the payload ownership rule on every bus and
// WAN hop. A program sets the bit rate, propagation delay (up to
// several interframe gaps), station count, CRC error rate and a
// wan delay, then interleaves broadcast and unicast sends on a shared
// medium, uplink sends on a LinkPort whose Relay sits on that medium,
// partition toggles and time advances. Every sender is a pooled owner
// that poisons a buffer when its done hook fires; every station,
// including the gateway behind the LinkPort's downlink, checks each
// payload it is handed. At the end every done hook has fired exactly
// once.
func FuzzFrameOwnership(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		runOwnership(t, prog)
	})
}

func runOwnership(t *testing.T, prog []byte) {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	cfg := DefaultLAN()
	cfg.BitRateBps = []float64{10e6, 1e6, 100e6, 1e9}[next()%4]
	cfg.PropDelayS = []float64{500e-9, 0, 20e-6, 300e-6}[next()%4]
	nst := 2 + int(next()%5)
	if next()%2 == 1 {
		cfg.CRCErrorProb = 0.2
	}
	wan := float64(next()%8) * 50e-6

	s := sim.New(uint64(len(prog)))
	o := &owner{t: t, lens: map[uint32]int{}}
	med := NewMedium(s, cfg)
	cs := make([]checker, nst)
	for i := range cs {
		cs[i] = checker{o: o, name: fmt.Sprintf("station %d", i)}
		med.Attach(&cs[i])
	}
	// The WAN plumbing poisons each link end's copy as the far end
	// hands it back, so a hop that releases a copy early shows too.
	var port *LinkPort
	var relay *Relay
	poisoned := func(f Frame, done func()) func() {
		return func() {
			for i := range f.Payload {
				f.Payload[i] = poison
			}
			done()
		}
	}
	port = NewLinkPort(NewMedium(s, cfg), func(f Frame, done func()) {
		s.At(s.Now()+wan, func() { relay.Inject(f, poisoned(f, done)) })
	}, nil)
	relay = NewRelay(med, func(f Frame, done func()) {
		s.At(s.Now()+wan, func() { port.Inject(f, poisoned(f, done)) })
	}, nil)
	gw := checker{o: o, name: "gateway"}
	port.Attach(&gw)

	for steps := 0; len(prog) > 0 && steps < 256; steps++ {
		op := next()
		size := 4 + int(next())
		switch op % 5 {
		case 0:
			b := o.fill(size)
			med.Lend(Frame{Src: int(op/5) % nst, Dst: Broadcast, Payload: b.b}, nil, b.done)
		case 1:
			b := o.fill(size)
			med.Lend(Frame{Src: int(op/5) % nst, Dst: int(size) % (nst + 2), Payload: b.b}, nil, b.done)
		case 2:
			b := o.fill(size)
			port.Lend(Frame{Src: 0, Dst: Broadcast, Payload: b.b}, nil, b.done)
		case 3:
			med.SetPartitioned(!med.partitioned)
		case 4:
			s.RunUntil(s.Now() + float64(size)*cfg.frameDuration(64)/16)
		}
	}
	s.Run()
	if o.pending != 0 {
		t.Fatalf("%d lent payloads were never handed back", o.pending)
	}
}
