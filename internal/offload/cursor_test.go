package offload

// Tests of what the engines share: the message cursor every walker steps,
// the front end that is the only difference between a TCP-level and a
// stacked receive engine, and the rule that a resync answer given from
// inside the request upcall waits for the packet to end.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/meta"
)

// cursorPos is what a walker's cursor looks like between packets.
type cursorPos struct {
	inMsg    bool
	hdrN     int
	msgOff   int
	msgIndex uint64
}

func posOf(c *msgCursor) cursorPos { return cursorPos{c.inMsg, c.hdrN, c.msgOff, c.msgIndex} }

// visits reduces a tpOps log to the regions a walker visited. Replay
// reports bodies as "replay" and message ends as "abort", and skips
// trailers; withTrailers=false drops them from the other walkers too.
func visits(events []tpEvent, withTrailers bool) []tpEvent {
	var out []tpEvent
	for _, ev := range events {
		switch ev.kind {
		case "replay":
			ev.kind = "body"
		case "abort":
			ev.kind = "end"
		case "trailer":
			if !withTrailers {
				continue
			}
		}
		out = append(out, ev)
	}
	return out
}

func randomCuts(rng *rand.Rand, total int) []int {
	var cuts []int
	for n := 0; n < total; {
		c := 1 + rng.Intn(9) // mostly shorter than header+trailer: both get split
		if rng.Intn(3) == 0 {
			c = 1 + rng.Intn(400)
		}
		cuts = append(cuts, c)
		n += c
	}
	return cuts
}

func TestWalkerAgreement(t *testing.T) {
	// The three walkers — receive in sequence, transmit in sequence,
	// transmit replay — must cut any stream at any packetization into the
	// same (msgIndex, region, offset, length) sequence and hold the same
	// cursor between any two packets.
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 5+rng.Intn(20))
		for i := range sizes {
			sizes[i] = rng.Intn(4) * rng.Intn(200)
		}
		st := buildStream(uint32(rng.Uint32()), sizes, seed)
		rxOps, txOps, reOps := &tpOps{t: t}, &tpOps{t: t}, &tpOps{t: t}
		rx := NewRxEngine(rxOps, st.base, nil)
		tx := NewTxEngine(txOps, nil, st.base)
		re := NewTxEngine(reOps, nil, st.base)
		for _, p := range st.packets(randomCuts(rng, len(st.data))) {
			if f := rx.Process(p.seq, append([]byte(nil), p.data...), false); !f.Has(meta.TLSOffloaded) {
				t.Fatalf("seed %d: rx packet at %d not offloaded", seed, p.seq)
			}
			tx.Process(p.seq, append([]byte(nil), p.data...))
			re.walk(p.data, true)
			if a, b, c := posOf(&rx.cur), posOf(&tx.cur), posOf(&re.cur); a != b || a != c {
				t.Fatalf("seed %d: cursors diverge after %d: rx %+v tx %+v replay %+v", seed, p.seq, a, b, c)
			}
			if rx.cur.inMsg && rx.cur.msgOff > rx.cur.layout.Total {
				t.Fatalf("seed %d: msgOff %d beyond the message's %d bytes", seed, rx.cur.msgOff, rx.cur.layout.Total)
			}
		}
		if got, want := visits(txOps.events, true), visits(rxOps.events, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: tx walked\n%v\nrx walked\n%v", seed, got, want)
		}
		if got, want := visits(reOps.events, false), visits(rxOps.events, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: replay walked\n%v\nrx walked\n%v", seed, got, want)
		}
		if rx.Stats.MsgsCompleted != uint64(len(sizes)) || tx.Stats.MsgsCompleted != uint64(len(sizes)) {
			t.Fatalf("seed %d: completed rx %d tx %d of %d", seed, rx.Stats.MsgsCompleted, tx.Stats.MsgsCompleted, len(sizes))
		}
	}
}

func TestFrontEndParity(t *testing.T) {
	// With no gaps the front end has nothing to say, so a TCP-level engine
	// and a stacked one fed "contiguous" are the same machine.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 10+rng.Intn(20))
		for i := range sizes {
			sizes[i] = rng.Intn(500)
		}
		st := buildStream(uint32(rng.Uint32()), sizes, seed)
		dOps, sOps := &tpOps{t: t}, &tpOps{t: t}
		dense := NewRxEngine(dOps, st.base, nil)
		stacked := NewSparseRxEngine(sOps, nil)
		for _, p := range st.packets(randomCuts(rng, len(st.data))) {
			fd := dense.Process(p.seq, append([]byte(nil), p.data...), false)
			fs := stacked.Process(p.seq, append([]byte(nil), p.data...), true)
			if fd != fs {
				t.Fatalf("seed %d: flags at %d: dense %v stacked %v", seed, p.seq, fd, fs)
			}
		}
		if !reflect.DeepEqual(dOps.events, sOps.events) {
			t.Fatalf("seed %d: event logs differ", seed)
		}
		if dense.Stats != stacked.Stats || dense.State() != stacked.State() {
			t.Fatalf("seed %d: dense %s %+v, stacked %s %+v", seed, dense.State(), dense.Stats, stacked.State(), stacked.Stats)
		}
	}
}

func TestResyncAnsweredInsideRequest(t *testing.T) {
	// L5P software may answer a resync request from inside the request
	// upcall, while the engine is still in the middle of the packet that
	// raised it. The answer must wait for the packet to end: whatever the
	// rest of the packet holds, the outcome is that of the same answer
	// arriving just after Process returns.
	msg := func(body string) []byte { return tpMakeMessage([]byte(body), 0) }
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	rest := cat(msg("1234"), msg(""), msg("567890"))
	// Each case is a stream and the length of the packet that carries the
	// candidate; what follows the candidate in that packet differs.
	cases := map[string]struct {
		stream []byte
		first  int
	}{
		// The chain continues where the candidate's length says.
		"good header": {cat(msg("ab"), msg("cdefgh"), rest), 8 + 7},
		// Not a header there: tracking aborts, nothing more in the packet.
		"bad header": {cat(msg("ab"), []byte("00000000"), rest), 8 + 8},
		// Not a header there, and a second candidate after it (the input
		// FuzzRxSearchGarbage found: a confirm resumed mid-packet, twice).
		"second candidate": {cat(msg("ab"), []byte("0000"), msg("ijklmnopqrstuvwxyz"), rest), 8 + 4 + 6},
	}

	type outcome struct {
		events []tpEvent
		stats  RxStats
		state  string
	}
	run := func(t *testing.T, stacked, confirm, inside bool, stream []byte, first int) outcome {
		ops := &tpOps{t: t}
		var e *RxEngine
		var asked []uint32
		req := func(seq uint32) {
			if inside {
				e.ResyncResponse(seq, confirm, 7)
			} else {
				asked = append(asked, seq)
			}
		}
		seq := uint32(5_000_000)
		if stacked {
			e = NewSparseRxEngine(ops, resyncFunc(req))
		} else {
			e = NewRxEngine(ops, seq, resyncFunc(req))
		}
		feed := func(data []byte) {
			e.Process(seq, append([]byte(nil), data...), true)
			seq += uint32(len(data))
			for _, s := range asked {
				e.ResyncResponse(s, confirm, 7)
			}
			asked = nil
			if c := &e.cur; c.inMsg && c.msgOff > c.layout.Total {
				t.Fatalf("msgOff %d beyond the message's %d bytes", c.msgOff, c.layout.Total)
			}
		}
		// Garbage where a header is due: the engine loses sync and searches.
		feed([]byte{1, 2, 3, 4, 5, 6, 7, 8})
		if e.State() != "searching" {
			t.Fatalf("engine not searching: %s", e.State())
		}
		feed(stream[:first])
		for off := first; off < len(stream); off += 5 {
			feed(stream[off:min(off+5, len(stream))])
		}
		return outcome{ops.events, e.Stats, e.State()}
	}
	for _, stacked := range []bool{false, true} {
		for _, confirm := range []bool{true, false} {
			for name, tc := range cases {
				t.Run(fmt.Sprintf("stacked=%v/confirm=%v/%s", stacked, confirm, name), func(t *testing.T) {
					got := run(t, stacked, confirm, true, tc.stream, tc.first)
					want := run(t, stacked, confirm, false, tc.stream, tc.first)
					if !reflect.DeepEqual(got.events, want.events) {
						t.Errorf("events with the answer inside the request:\n%v\njust after Process:\n%v", got.events, want.events)
					}
					if got.stats != want.stats || got.state != want.state {
						t.Errorf("inside: %s %+v\nafter:  %s %+v", got.state, got.stats, want.state, want.stats)
					}
					if got.stats.ResyncRequests == 0 {
						t.Error("no request was raised")
					}
					if confirm && got.state != "offloading" {
						t.Errorf("a confirmed chain did not resume: %s", got.state)
					}
				})
			}
		}
	}
}

// nopOps is a TLS-shaped L5P (5-byte header, 16-byte trailer) that does
// nothing, so benchmarks and allocation gates measure the engines alone.
type nopOps struct{}

func (nopOps) HeaderLen() int { return 5 }
func (nopOps) ParseHeader(hdr []byte) (MsgLayout, bool) {
	if hdr[0] != 0x17 || hdr[1] != 3 || hdr[2] != 3 {
		return MsgLayout{}, false
	}
	return MsgLayout{Total: 5 + int(hdr[3])<<8 + int(hdr[4]), Header: 5, Trailer: 16}, true
}
func (nopOps) BeginMessage(MsgLayout, []byte, uint64)       {}
func (nopOps) ResumeMessage(MsgLayout, []byte, uint64, int) {}
func (nopOps) Body(uint32, []byte, int)                     {}
func (nopOps) ReplayBody([]byte, int)                       {}
func (nopOps) Trailer(uint32, []byte, int)                  {}
func (nopOps) EndMessage() bool                             { return true }
func (nopOps) AbortMessage()                                {}
func (nopOps) NoteDiscontinuity()                           {}
func (nopOps) PacketVerdict(bool, bool) meta.RxFlags        { return 0 }

// nopStream is records of recLen bytes cut into pktLen-byte packets; with
// pktLen not dividing recLen the 5-byte header regularly straddles a cut.
func nopStream(records, recLen, pktLen int) (pkts [][]byte) {
	var data []byte
	for i := 0; i < records; i++ {
		rec := make([]byte, recLen)
		rec[0], rec[1], rec[2], rec[3], rec[4] = 0x17, 3, 3, byte((recLen-5)>>8), byte(recLen-5)
		data = append(data, rec...)
	}
	for off := 0; off < len(data); off += pktLen {
		pkts = append(pkts, data[off:min(off+pktLen, len(data))])
	}
	return pkts
}

// nopSource retains the whole stream for transmit recovery.
type nopSource struct {
	data   []byte
	recLen int
}

func (s nopSource) MsgStateAt(seq uint32) (uint32, uint64, bool) {
	i := int(seq) / s.recLen
	return uint32(i * s.recLen), uint64(i), true
}
func (s nopSource) StreamBytes(from, to uint32) ([]byte, error) { return s.data[from:to], nil }

// The four per-packet paths the layer benchmark and the allocation gate
// share. Each returns a func that processes one packet.
func rxInSeqPath() func() {
	pkts := nopStream(64, 1453, 1448)
	e := NewRxEngine(nopOps{}, 0, nil)
	i, seq := 0, uint32(0)
	return func() {
		if i == len(pkts) {
			i, seq = 0, 0
			e.expected = 0
		}
		e.Process(seq, pkts[i], false)
		seq += uint32(len(pkts[i]))
		i++
	}
}

func rxSearchPath() func() {
	garbage := make([]byte, 1448) // zeros: no magic pattern anywhere
	e := NewRxEngine(nopOps{}, 0, nil)
	e.Process(1<<20, garbage, false) // a gap with no message in flight: searching
	seq := uint32(1<<20 + 1448)
	return func() {
		e.Process(seq, garbage, false)
		seq += 1448
	}
}

func txInSeqPath() func() {
	pkts := nopStream(64, 1453, 1448)
	e := NewTxEngine(nopOps{}, nil, 0)
	i, seq := 0, uint32(0)
	return func() {
		if i == len(pkts) {
			i, seq = 0, 0
			e.expected = 0
		}
		e.Process(seq, pkts[i])
		seq += uint32(len(pkts[i]))
		i++
	}
}

func txReplayPath() func() {
	const recLen = 16 << 10
	pkts := nopStream(4, recLen, 1448)
	var data []byte
	for _, p := range pkts {
		data = append(data, p...)
	}
	e := NewTxEngine(nopOps{}, nopSource{data, recLen}, 0)
	for i, p := range pkts {
		e.Process(uint32(i*1448), p)
	}
	// Retransmit the packet in the middle of record 2, over and over: each
	// is a backward jump that replays half a record from host memory.
	k := (2*recLen + recLen/2) / 1448
	return func() {
		e.Process(uint32(k*1448), pkts[k])
		e.Process(uint32((k+2)*1448), pkts[k+2]) // forward jump: replays the gap
	}
}

func TestProcessNoAlloc(t *testing.T) {
	// The per-packet paths reuse the engine's own buffers: the header
	// collector across packet cuts, the search tail and seam.
	for name, path := range map[string]func() func(){
		"rx in sequence": rxInSeqPath,
		"tx in sequence": txInSeqPath,
		"rx searching":   rxSearchPath,
	} {
		step := path()
		step() // first use sizes the buffers
		if n := testing.AllocsPerRun(500, step); n != 0 {
			t.Errorf("%s: %.1f allocs per packet, want 0", name, n)
		}
	}
}

func BenchmarkRxProcess(b *testing.B) {
	for _, bc := range []struct {
		name string
		path func() func()
	}{{"inseq", rxInSeqPath}, {"search", rxSearchPath}} {
		b.Run(bc.name, func(b *testing.B) {
			step := bc.path()
			b.SetBytes(1448)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

func BenchmarkTxProcess(b *testing.B) {
	for _, bc := range []struct {
		name string
		path func() func()
	}{{"inseq", txInSeqPath}, {"replay", txReplayPath}} {
		b.Run(bc.name, func(b *testing.B) {
			step := bc.path()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// headerLenOps is nopOps with another header length.
type headerLenOps struct {
	nopOps
	n int
}

func (o headerLenOps) HeaderLen() int { return o.n }

// TestCursorHeaderLenBounds: the cursor keeps a header in a fixed array
// inside the engine, so an engine accepts any header up to that array's
// length and refuses, at construction, one it could not hold.
func TestCursorHeaderLenBounds(t *testing.T) {
	for _, n := range []int{1, maxHeaderLen} {
		NewRxEngine(headerLenOps{n: n}, 0, nil)
	}
	for _, n := range []int{0, maxHeaderLen + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("an engine for %d-byte headers was built", n)
				}
			}()
			NewTxEngine(headerLenOps{n: n}, nil, 0)
		}()
	}
}
