package tcpip

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// sentBytes copies the sent bytes in [from, to) out of the ring (ReadSent),
// for tests that check the ring holds the written stream.
func (s *Socket) sentBytes(from, to uint32) ([]byte, error) {
	head, tail, ok := s.ReadSent(from, to)
	if !ok {
		return nil, fmt.Errorf("tcpip: stream range [%d,%d) not in the send ring", from, to)
	}
	return append(bytes.Clone(head), tail...), nil
}

// sndAppend copies p into the send ring behind its bytes, as WriteZC does
// without the socket's state, space and transmission.
func (s *Socket) sndAppend(p []byte) {
	copy(s.sndReserve(len(p)), p)
	s.sndCommit(len(p))
}

// TestSendStoreRecycling opens, closes and reopens connections with
// distinct patterns: a closed socket's send ring must reach the next
// connection (that is the point), never a second live one, and the closed
// socket must hold no bytes that are no longer its own. The free list's
// byte bound is checked on its own at the end.
func TestSendStoreRecycling(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 1, Latency: 100 * time.Microsecond})
	got := map[uint16]*bytes.Buffer{} // by client port
	p.b.Listen(80, func(s *Socket) {
		buf := &bytes.Buffer{}
		got[s.Flow().Dst.Port] = buf
		s.OnReadable = func(s *Socket) {
			for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
				buf.Write(c.Data)
			}
			if s.EOF() {
				s.Close()
			}
		}
	})
	open := func(pattern []byte, thenClose bool) *Socket {
		return p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
			if n := s.Write(pattern); n != len(pattern) {
				t.Fatalf("short write %d of %d", n, len(pattern))
			}
			if thenClose {
				s.Close()
			}
		})
	}
	base := func(b []byte) *byte { return &b[:1][0] }
	checkLive := func(s *Socket, pattern []byte) {
		t.Helper()
		b, err := s.sentBytes(s.sndUna, s.sndUna+uint32(s.BufferedOut()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(pattern, b) || len(b) == 0 {
			t.Errorf("live socket's %d buffered bytes are not its pattern's tail", len(b))
		}
	}

	patA, patB, patC, patD := randBytes(20000, 1), randBytes(15000, 2), randBytes(30000, 3), randBytes(9000, 4)

	first := open(patA, true)
	p.sim.RunUntil(10 * time.Millisecond)
	if first.State() != "closed" {
		t.Fatalf("first connection is %s, want closed", first.State())
	}
	if _, err := first.sentBytes(first.sndUna, first.sndUna); err == nil || first.BufferedOut() != 0 {
		t.Error("a torn-down socket still reads from its send ring")
	}
	// One write of 20 000 bytes: one ring, the next power of two.
	if len(p.a.sndFree.arrs) != 1 || len(p.a.sndFree.arrs[0]) != 32<<10 || p.a.sndFree.held != 32<<10 {
		t.Fatalf("free list holds %d rings, %d bytes after one teardown, want one ring of 32 KiB",
			len(p.a.sndFree.arrs), p.a.sndFree.held)
	}
	recycled := base(p.a.sndFree.arrs[0])

	// Two live connections at once: one starts on the recycled ring, the
	// other must not share it.
	second, third := open(patB, false), open(patC, false)
	p.sim.RunUntil(10*time.Millisecond + 250*time.Microsecond)
	if second.BufferedOut() == 0 || third.BufferedOut() == 0 {
		t.Fatal("timing: nothing buffered 250µs after connecting")
	}
	if base(second.snd) != recycled {
		t.Error("the reopened connection did not take the recycled ring")
	}
	if base(third.snd) == base(second.snd) {
		t.Fatal("two live sockets share one send ring")
	}
	checkLive(second, patB)
	checkLive(third, patC)

	// Close one while the other still has bytes in flight, and let a fourth
	// connection take over its ring.
	second.Close()
	p.sim.RunUntil(11 * time.Millisecond)
	if second.State() != "closed" || third.State() != "established" {
		t.Fatalf("second %s, third %s", second.State(), third.State())
	}
	third.Write(patC[:5000])
	fourth := open(patD, false)
	p.sim.RunUntil(11*time.Millisecond + 250*time.Microsecond)
	if base(fourth.snd) != recycled {
		t.Error("the ring did not go round a second time")
	}
	if base(fourth.snd) == base(third.snd) {
		t.Fatal("recycled ring aliases a live socket's")
	}
	checkLive(third, patC[:5000])
	checkLive(fourth, patD)
	third.Close()
	fourth.Close()
	p.sim.RunUntil(time.Second)

	want := map[uint16][]byte{
		first.Flow().Src.Port:  patA,
		second.Flow().Src.Port: patB,
		third.Flow().Src.Port:  append(append([]byte(nil), patC...), patC[:5000]...),
		fourth.Flow().Src.Port: patD,
	}
	for port, w := range want {
		if g := got[port]; g == nil || !bytes.Equal(g.Bytes(), w) {
			t.Errorf("port %d: server did not receive the connection's own bytes", port)
		}
	}

	// The free list holds rings of any size but at most defaultSndBuf
	// bytes in all: a ring that would exceed it is dropped, and taking one
	// back frees its share of the budget.
	st := &Stack{}
	for _, n := range []int{2 << 20, 1 << 20, 1 << 20, 4 << 10} {
		st.putSndRing(make([]byte, n))
	}
	if len(st.sndFree.arrs) != 3 || st.sndFree.held != defaultSndBuf {
		t.Fatalf("free list holds %d rings, %d bytes; want the first three, %d bytes",
			len(st.sndFree.arrs), st.sndFree.held, defaultSndBuf)
	}
	if r := st.getSndRing(1 << 20); len(r) != 1<<20 || st.sndFree.held != 3<<20 {
		t.Fatalf("got a %d-byte ring, %d bytes left held", len(r), st.sndFree.held)
	}
	if r := st.getSndRing(4 << 20); len(r) != 4<<20 || len(st.sndFree.arrs) != 2 {
		t.Fatalf("a need no ring on the list meets must allocate: got %d bytes, %d rings held",
			len(r), len(st.sndFree.arrs))
	}
}

// TestSendRingWrap streams 1 MiB through a send ring the writer keeps
// under 6 000 bytes full — an 8 KiB ring, which segments cross on most
// laps. On the way it loses one wrapping segment, so the fast retransmit
// resends a wrapping range through the gather scratch; after that, once,
// while the ring is wrapped, it writes enough to make it grow. Every byte
// the peer reads must be the written stream's.
func TestSendRingWrap(t *testing.T) {
	var (
		p                   *pair
		lastFR              uint64
		wrapped, gatheredFR int
		dropped, grew       bool
	)
	gathered := func(pkt *wire.Packet) bool {
		g := p.a.gather[:cap(p.a.gather)]
		return len(pkt.Payload) > 0 && len(g) > 0 && &pkt.Payload[0] == &g[0]
	}
	p = newFilterPair(t, netsim.LinkConfig{Gbps: 10, Latency: 5 * time.Microsecond}, func(pkt *wire.Packet) bool {
		fastRexmit := p.a.Stats.FastRetransmits != lastFR
		lastFR = p.a.Stats.FastRetransmits
		if !gathered(pkt) {
			return false
		}
		if fastRexmit {
			gatheredFR++
		}
		if wrapped++; wrapped == 3 {
			dropped = true
			return true
		}
		return false
	})
	var got bytes.Buffer
	done := false
	p.b.Listen(80, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
				got.Write(c.Data)
			}
			done = s.EOF()
		}
	})
	var sender *Socket
	p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) { sender = s })

	data := randBytes(1<<20, 91)
	written, limit := 0, 6000
	for i := 0; !done && i < 1e6; i++ {
		if s := sender; s != nil && written < len(data) {
			ring := len(s.snd)
			wrapping := !grew && gatheredFR > 0 && s.sndOff+s.sndLen > ring
			if wrapping {
				limit *= 4 // write past the ring's end
			}
			if n := min(limit-s.BufferedOut(), len(data)-written); n > 0 {
				written += s.Write(data[written : written+n])
			}
			if wrapping {
				if grew = len(s.snd) > ring; !grew {
					t.Fatalf("a write to %d bytes left the %d-byte ring as it was", s.sndLen, ring)
				}
			}
			if written == len(data) {
				s.Close()
			}
		}
		p.sim.RunFor(time.Microsecond)
	}
	if !done || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("peer read %d bytes (done=%v), want the %d written, byte for byte", got.Len(), done, len(data))
	}
	if !dropped || gatheredFR == 0 || !grew {
		t.Errorf("lost a wrapping segment: %v; fast retransmits %d, %d of them through the gather scratch; grew while wrapped: %v",
			dropped, p.a.Stats.FastRetransmits, gatheredFR, grew)
	}
}

// FuzzSendRing drives the ring's operations from fuzz bytes — reserve and
// commit all or part of a reservation behind the buffered bytes (wrapping
// ones go through the gather scratch), trim at the head, read any buffered
// range, set, raise and release the retention floor, read back any range
// the ring holds — and checks every read against a model holding the whole
// written stream. After every step the ring must be a power of two, never
// shorter than the retained and buffered bytes it holds, and never longer
// than the next power of two of the most it ever held or was asked to
// reserve room behind. The stream starts just below 2^32, so it crosses
// the sequence wrap.
func FuzzSendRing(f *testing.F) {
	f.Add([]byte{0, 200, 2, 9, 1, 100, 0, 255, 2, 7, 1, 255, 0, 3, 2, 1})
	f.Add([]byte{0, 110, 1, 99, 0, 110, 2, 0, 0, 250, 2, 3})
	f.Add([]byte{0, 90, 3, 0, 1, 20, 4, 7, 0, 200, 1, 40, 4, 200, 5, 120, 1, 80, 3, 30, 4, 11, 6, 0, 1, 9, 4, 2})
	f.Add([]byte{0, 100, 1, 74, 0, 30, 2, 0, 4, 1}) // the last write's reservation wraps the ring
	f.Fuzz(func(t *testing.T, ops []byte) {
		const start = 0xFFFFF000
		s := &Socket{stack: &Stack{}, sndUna: start}
		var (
			hist       []byte // every byte written, hist[i] at sequence start+i
			una, floor int    // model positions, relative to start
			keep       bool
			next       byte
			peak       int
		)
		lo := func() int { // the first byte the ring must hold
			if keep && floor < una {
				return floor
			}
			return una
		}
		write := func(n, commit int) {
			p := s.sndReserve(n)
			peak = max(peak, len(hist)-lo()+n)
			if len(p) != n {
				t.Fatalf("reserved %d bytes, asked for %d", len(p), n)
			}
			for i := range p[:commit] {
				p[i], next = next, (next+1)%251
			}
			s.sndCommit(commit)
			hist = append(hist, p[:commit]...)
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			k := int(ops[1])
			switch ops[0] % 7 {
			case 0: // write k·37 bytes of a counter stream (period 251)
				write(k*37, k*37)
			case 1: // acknowledge up to k·41 bytes
				n := min(k*41, len(hist)-una)
				s.sndTrim(n)
				s.sndUna += uint32(n)
				una += n
			case 2: // read a buffered range
				if len(hist) == una {
					continue
				}
				off := k * 53 % (len(hist) - una)
				n := min(len(hist)-una-off, 1+k*29)
				if got := s.sndSlice(off, n); !bytes.Equal(got, hist[una+off:una+off+n]) {
					t.Fatalf("sndSlice(%d, %d) differs from the written stream", off, n)
				}
			case 3: // retain from k·43 bytes past the ring's first byte (or below it)
				seq := lo() + k*43 - 500
				s.RetainFrom(uint32(start + seq))
				keep, floor = true, max(seq, lo())
			case 4: // read back a range the ring holds, and one starting below it
				span := len(hist) - lo()
				off := k * 47 % (span + 1)
				n := min(span-off, k*31)
				from := uint32(start + lo() + off)
				head, tail, ok := s.ReadSent(from, from+uint32(n))
				if got := append(bytes.Clone(head), tail...); !ok || !bytes.Equal(got, hist[lo()+off:lo()+off+n]) {
					t.Fatalf("ReadSent [%d, +%d) = %v, differs from the written stream", lo()+off, n, ok)
				}
				if _, _, ok := s.ReadSent(uint32(start+lo()-1), from); ok {
					t.Fatalf("ReadSent served the byte before the ring's first, %d", lo()-1)
				}
			case 5: // reserve k·37 bytes, commit the first third
				write(k*37, k*37/3)
			case 6:
				s.ReleaseRetained()
				keep = false
			}
			peak = max(peak, len(hist)-lo())
			if r := len(s.snd); s.sndLen != len(hist)-una || s.sndHeld != una-lo() || r&(r-1) != 0 ||
				r < s.sndHeld+s.sndLen || (peak > 0 && r > 1<<bits.Len(uint(peak-1))) {
				t.Fatalf("ring of %d bytes holding %d retained + %d buffered (model %d + %d, peak %d)",
					r, s.sndHeld, s.sndLen, una-lo(), len(hist)-una, peak)
			}
		}
		head, tail, ok := s.ReadSent(uint32(start+lo()), uint32(start+len(hist)))
		if got := append(bytes.Clone(head), tail...); len(hist) > 0 && (!ok || !bytes.Equal(got, hist[lo():])) {
			t.Fatal("the ring's bytes differ from the written stream")
		}
		held := 0
		for _, r := range s.stack.sndFree.arrs {
			held += len(r)
		}
		if held != s.stack.sndFree.held || held > defaultSndBuf {
			t.Fatalf("free list holds %d bytes, counts %d", held, s.stack.sndFree.held)
		}
	})
}

// TestSndAppendNoAlloc: once the ring and the gather scratch have reached
// the size a connection's window needs, writing, reading any range —
// wrapping ones included — and trimming never allocate.
func TestSndAppendNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	s := &Socket{stack: &Stack{}}
	s.sndAppend(make([]byte, 3000)) // a 4 KiB ring
	s.stack.growGather(4 << 10)
	chunk := make([]byte, 1000)
	if got := testing.AllocsPerRun(1000, func() {
		s.sndAppend(chunk)
		s.sndSlice(0, s.sndLen) // wraps on most turns
		s.sndTrim(len(chunk))
	}); got != 0 {
		t.Errorf("sndAppend + sndSlice + sndTrim = %v allocs at steady state, want 0", got)
	}
	if len(s.snd) != 4<<10 {
		t.Errorf("the ring grew to %d bytes holding at most 4000", len(s.snd))
	}
}
