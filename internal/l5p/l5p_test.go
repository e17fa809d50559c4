// The kit's tests live outside the package so they can import the two
// L5Ps that embed it and run every property over each header format.
package l5p_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/l5p"
	"repro/internal/meta"
	"repro/internal/nvmetcp"
	"repro/internal/offload"
	"repro/internal/tcpip"
)

// proto is one L5P's framing as the Assembler sees it, plus a builder of
// valid wire messages with a given number of body bytes.
type proto struct {
	name    string
	hdrLen  int
	parse   func([]byte) (offload.MsgLayout, bool)
	maxBody int
	build   func(rng *rand.Rand, body int) []byte
}

var protos = []proto{
	{"ktls", ktls.HeaderLen, ktls.ParseHeader, ktls.MaxPlaintext,
		func(rng *rand.Rand, body int) []byte {
			rec := make([]byte, ktls.HeaderLen+body+ktls.TagLen)
			rng.Read(rec)
			ktls.PutHeader(rec, body)
			return rec
		}},
	{"nvmetcp", nvmetcp.HeaderLen, nvmetcp.ParseHeader, 256 << 10,
		func(rng *rand.Rand, body int) []byte {
			data := make([]byte, body)
			rng.Read(data)
			h := &nvmetcp.Header{Type: nvmetcp.TypeResp, CID: uint16(rng.Intn(1 << 16)),
				Op: nvmetcp.StatusOK, Offset: uint64(rng.Intn(1 << 20)), DataLen: body}
			return nvmetcp.Build(h, data, false)
		}},
}

func (p proto) assembler() l5p.Assembler { return l5p.Assembler{HeaderLen: p.hdrLen, Parse: p.parse} }

// forEachProto runs fn as one subtest per header format.
func forEachProto(t *testing.T, fn func(t *testing.T, p proto)) {
	for _, p := range protos {
		t.Run(p.name, func(t *testing.T) { fn(t, p) })
	}
}

// drain takes every complete message out of a, checking the invariants
// that hold for any input: a message is as long as Next says and as its
// own header says, and its chunks' sequence numbers are contiguous from
// wantSeq. It returns the messages flattened.
func drain(t *testing.T, p proto, a *l5p.Assembler, wantSeq *uint32) (msgs [][]byte, err error) {
	t.Helper()
	for {
		chunks, total, err := a.Next()
		if err != nil || chunks == nil {
			return msgs, err
		}
		var msg []byte
		for _, ch := range chunks {
			if ch.Seq != *wantSeq {
				t.Fatalf("chunk seq %d, want %d", ch.Seq, *wantSeq)
			}
			*wantSeq += uint32(len(ch.Data))
			msg = append(msg, ch.Data...)
		}
		if layout, ok := p.parse(msg[:p.hdrLen]); !ok || layout.Total != total || len(msg) != total {
			t.Fatalf("message is %d bytes, Next said %d, its header %+v/%v", len(msg), total, layout, ok)
		}
		msgs = append(msgs, msg)
	}
}

// TestAssemblerReassemblesAnyChunking splits a message stream at arbitrary boundaries
// and checks the assembler returns exactly the original messages, with
// flags preserved per chunk, whether it is drained after every chunk or
// after a batch of them.
func TestAssemblerReassemblesAnyChunking(t *testing.T) {
	forEachProto(t, func(t *testing.T, p proto) {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var stream []byte
			var wants [][]byte
			for i := 0; i < 1+rng.Intn(6); i++ {
				msg := p.build(rng, rng.Intn(5000))
				wants = append(wants, msg)
				stream = append(stream, msg...)
			}
			a := p.assembler()
			base := rng.Uint32() // anywhere, so some runs cross 2^32
			next := base
			batch := 1 + rng.Intn(4)*int(seed%2) // odd seeds drain after batches
			var got [][]byte
			for off, pushed := 0, 0; off < len(stream); {
				n := min(1+rng.Intn(900), len(stream)-off)
				// The flag rides on the chunk; tag by parity to see it survive.
				flags := meta.NVMeOffloaded
				if pushed%2 == 1 {
					flags = meta.TLSDecrypted
				}
				a.Push(tcpip.Chunk{Seq: base + uint32(off), Data: stream[off : off+n], Flags: flags})
				off += n
				if pushed++; pushed%batch != 0 && off < len(stream) {
					continue
				}
				msgs, err := drain(t, p, &a, &next)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				got = append(got, msgs...)
			}
			if len(got) != len(wants) {
				t.Fatalf("seed %d: %d messages, want %d", seed, len(got), len(wants))
			}
			for i := range got {
				if !bytes.Equal(got[i], wants[i]) {
					t.Fatalf("seed %d: message %d differs", seed, i)
				}
			}
			if a.Buffered() != 0 {
				t.Fatalf("seed %d: %d bytes left buffered", seed, a.Buffered())
			}
		}
	})
}

// TestAssemblerChunkSeqsContiguous verifies that a chunk straddling two
// messages is split with correct wire sequence numbers (the coordinate
// resync responses rely on) and inherited flags on both halves.
func TestAssemblerChunkSeqsContiguous(t *testing.T) {
	forEachProto(t, func(t *testing.T, p proto) {
		rng := rand.New(rand.NewSource(1))
		m1, m2 := p.build(rng, 100), p.build(rng, 60)
		stream := append(append([]byte(nil), m1...), m2...)
		a := p.assembler()
		base := uint32(0xFFFFFFD0) // the straddling chunk also crosses 2^32
		a.Push(tcpip.Chunk{Seq: base, Data: stream[:40], Flags: meta.TLSOffloaded})
		a.Push(tcpip.Chunk{Seq: base + 40, Data: stream[40:], Flags: meta.TLSDecrypted})
		first, _, err := a.Next()
		if err != nil || len(first) != 2 {
			t.Fatalf("first message: %d chunks, err %v", len(first), err)
		}
		if first[0].Seq != base || first[1].Seq != base+40 ||
			first[0].Flags != meta.TLSOffloaded || first[1].Flags != meta.TLSDecrypted {
			t.Errorf("first message chunks %+v", first)
		}
		second, total, err := a.Next()
		if err != nil || len(second) != 1 || total != len(m2) {
			t.Fatalf("second message: %d chunks, %d bytes, err %v", len(second), total, err)
		}
		wantSeq := uint32(len(m1)) - 0x30 // base + len(m1), wrapped
		if second[0].Seq != wantSeq || second[0].Flags != meta.TLSDecrypted ||
			!bytes.Equal(second[0].Data, m2) {
			t.Errorf("second message starts at seq %d flags %v, want %d %v",
				second[0].Seq, second[0].Flags, wantSeq, meta.TLSDecrypted)
		}
	})
}

// TestAssemblerMalformedHeaderIsSticky: a header the parser rejects is an
// error, not a panic; it repeats on every later call, nothing further is
// delivered and the bad bytes stay buffered.
func TestAssemblerMalformedHeaderIsSticky(t *testing.T) {
	forEachProto(t, func(t *testing.T, p proto) {
		rng := rand.New(rand.NewSource(2))
		good := p.build(rng, 50)
		a := p.assembler()
		a.Push(tcpip.Chunk{Seq: 1, Data: good})
		a.Push(tcpip.Chunk{Seq: 1 + uint32(len(good)), Data: bytes.Repeat([]byte{0xEE}, p.hdrLen)})
		if msg, _, err := a.Next(); err != nil || msg == nil {
			t.Fatalf("good message not delivered: %v", err)
		}
		_, _, err := a.Next()
		if err == nil {
			t.Fatal("malformed header accepted")
		}
		a.Push(tcpip.Chunk{Seq: 1000, Data: good})
		if msg, _, again := a.Next(); msg != nil || again != err {
			t.Errorf("after the error: msg=%v err=%v, want the same error", msg, again)
		}
		if want := p.hdrLen + len(good); a.Buffered() != want {
			t.Errorf("Buffered = %d, want %d", a.Buffered(), want)
		}
	})
}

// TestAssemblerRejectsShortTotal: a parser that claims a message shorter
// than its own header cannot wedge or crash the assembler.
func TestAssemblerRejectsShortTotal(t *testing.T) {
	a := l5p.Assembler{HeaderLen: 4, Parse: func([]byte) (offload.MsgLayout, bool) {
		return offload.MsgLayout{Total: 0, Header: 4}, true
	}}
	a.Push(tcpip.Chunk{Data: make([]byte, 16)})
	if msg, _, err := a.Next(); msg != nil || err == nil {
		t.Errorf("msg=%v err=%v, want an error", msg, err)
	}
}

// TestTakeNoAlloc: at steady state cutting messages out of the chunk
// queue allocates nothing and never reparses a header, both when the owner
// pushes a poll's batch and then drains (ktls) and when it drains after
// every chunk of a 182-chunk message (nvmetcp).
func TestTakeNoAlloc(t *testing.T) {
	forEachProto(t, func(t *testing.T, p proto) {
		msg := p.build(rand.New(rand.NewSource(3)), p.maxBody)
		for _, mode := range []struct {
			name           string
			chunk, perPoll int
		}{
			{"batch-then-drain", 1448, 12},
			{"push-one-then-drain", (len(msg) + 181) / 182, 1},
		} {
			t.Run(mode.name, func(t *testing.T) {
				parses := 0
				a := l5p.Assembler{HeaderLen: p.hdrLen, Parse: func(h []byte) (offload.MsgLayout, bool) {
					parses++
					return p.parse(h)
				}}
				var seq, taken uint32
				pos, msgs := 0, 0
				poll := func() {
					for i := 0; i < mode.perPoll; i++ {
						n := min(mode.chunk, len(msg)-pos)
						a.Push(tcpip.Chunk{Seq: seq, Data: msg[pos : pos+n]})
						seq += uint32(n)
						pos = (pos + n) % len(msg)
					}
					for {
						got, _, err := a.Next()
						if err != nil {
							t.Fatal(err)
						}
						if got == nil {
							return
						}
						if got[0].Seq != taken {
							t.Fatalf("message starts at seq %d, want %d", got[0].Seq, taken)
						}
						taken += uint32(len(msg))
						msgs++
					}
				}
				for i := 0; i < 400; i++ {
					poll()
				}
				if n := testing.AllocsPerRun(400, poll); n != 0 {
					t.Errorf("%v allocations per poll at steady state, want 0", n)
				}
				if msgs == 0 || parses != msgs && parses != msgs+1 {
					t.Errorf("%d header parses for %d messages", parses, msgs)
				}
			})
		}
	})
}

// TestClip checks the clipped walk against a flat copy of the message for
// every range, and that it allocates nothing.
func TestClip(t *testing.T) {
	flat := make([]byte, 40)
	rand.New(rand.NewSource(4)).Read(flat)
	var msg []tcpip.Chunk
	for _, cut := range [][2]int{{0, 7}, {7, 8}, {8, 25}, {25, 40}} {
		msg = append(msg, tcpip.Chunk{Seq: 0xFFFFFFF0 + uint32(cut[0]), Data: flat[cut[0]:cut[1]],
			Flags: meta.RxFlags(1 << len(msg))})
	}
	for lo := 0; lo <= len(flat); lo++ {
		for hi := lo; hi <= len(flat)+3; hi++ {
			next := lo
			for off, part := range l5p.Clip(msg, lo, hi) {
				if off != next || part.Seq != 0xFFFFFFF0+uint32(off) || len(part.Data) == 0 ||
					!bytes.Equal(part.Data, flat[off:off+len(part.Data)]) {
					t.Fatalf("[%d,%d): part at %d seq %d len %d, expected offset %d",
						lo, hi, off, part.Seq, len(part.Data), next)
				}
				next += len(part.Data)
			}
			if want := min(hi, len(flat)); next != want && lo < want {
				t.Fatalf("[%d,%d): walk ended at %d", lo, hi, next)
			}
			if got := l5p.AppendRange(nil, msg, lo, hi); !bytes.Equal(got, flat[lo:min(hi, len(flat))]) {
				t.Fatalf("AppendRange [%d,%d) = % x", lo, hi, got)
			}
		}
	}
	all, some := l5p.Verdict(msg)
	if all != 0 || some != 0xF {
		t.Errorf("Verdict = %v, %v", all, some)
	}
}

func TestClipNoAlloc(t *testing.T) {
	data := make([]byte, 1448)
	msg := make([]tcpip.Chunk, 12)
	for i := range msg {
		msg[i] = tcpip.Chunk{Seq: uint32(i * len(data)), Data: data}
	}
	buf := make([]byte, 0, 12*len(data))
	total := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, part := range l5p.Clip(msg, 5, 12*len(data)-16) {
			total += len(part.Data)
		}
		buf = l5p.AppendRange(buf[:0], msg, 0, 12*len(data))
	}); n != 0 {
		t.Errorf("Clip/AppendRange allocate %v per message, want 0", n)
	}
}

// FuzzAssembler feeds arbitrary bytes, cut at arbitrary points, to the
// assembler under each of the two header parsers. Whatever arrives, the
// result is messages or a sticky error — never a panic, never a parser
// handed anything but exactly one header's bytes; the delivered messages
// concatenate to exactly the consumed prefix of the input, each as long as
// its header says, with contiguous sequence numbers, and they are the
// messages, and the error, that cutting the whole input at once gives.
// Every piece is pushed from one scratch buffer that is poisoned after each
// drain, so bytes the assembler keeps without copying them show up. The
// assembler is lent a Spares, and after a drain that leaves nothing
// buffered an odd cut releases its arrays, whose bytes are then poisoned
// before the next push borrows them again.
func FuzzAssembler(f *testing.F) {
	for i, p := range protos {
		rng := rand.New(rand.NewSource(int64(i)))
		var stream []byte
		last := 0
		for _, body := range []int{0, 1, 33, 300} { // short: the fuzzer minimizes every find byte by byte
			last = len(stream)
			stream = append(stream, p.build(rng, body)...)
		}
		bad := append([]byte(nil), stream...)
		bad[last] ^= 0xFF // the last message's header no longer parses
		f.Add(uint8(i), uint32(0xFFFFFF00), stream, []byte{0, 200, 3, 255, 90})
		f.Add(uint8(i), uint32(7), stream[:len(stream)-1], []byte{})
		f.Add(uint8(i), uint32(1<<31), bad, []byte{17, 4})
	}
	f.Fuzz(func(t *testing.T, which uint8, base uint32, data, cuts []byte) {
		p := protos[int(which)%len(protos)]
		var spares tcpip.Spares
		a := l5p.Assembler{HeaderLen: p.hdrLen, Parse: func(h []byte) (offload.MsgLayout, bool) {
			if len(h) != p.hdrLen {
				t.Fatalf("parser handed %d bytes, header is %d", len(h), p.hdrLen)
			}
			return p.parse(h)
		}, Spares: &spares}
		next := base
		var out []byte
		var sticky error
		scratch := make([]byte, len(data))
		for off, i := 0, 0; off < len(data); i++ {
			n := len(data) - off
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]))
			}
			a.Push(tcpip.Chunk{Seq: base + uint32(off), Data: scratch[:copy(scratch, data[off:off+n])]})
			off += n
			msgs, err := drain(t, p, &a, &next)
			for j := range scratch[:n] { // the piece's memory is reused once its callback returns
				scratch[j] = 0xDB
			}
			if sticky != nil && (err != sticky || len(msgs) > 0) {
				t.Fatalf("after error %q: %d messages, err %v", sticky, len(msgs), err)
			}
			sticky = err
			for _, m := range msgs {
				out = append(out, m...)
			}
			if len(out)+a.Buffered() != off {
				t.Fatalf("%d delivered + %d buffered != %d pushed", len(out), a.Buffered(), off)
			}
			if a.Buffered() == 0 && len(cuts) > 0 && cuts[i%len(cuts)]&1 == 1 {
				a.Release()
				b := spares.Bytes()
				b = b[:cap(b)]
				for j := range b {
					b[j] = 0xDB
				}
				spares.PutBytes(b)
			}
		}
		if !bytes.Equal(out, data[:len(out)]) {
			t.Fatal("delivered messages are not a prefix of the input")
		}
		// Cut in one piece, the input holds messages up to the first
		// incomplete one or the first bad header, which is the error.
		want, bad := 0, false
		for len(data)-want >= p.hdrLen {
			layout, ok := p.parse(data[want : want+p.hdrLen])
			if bad = !ok || layout.Total < p.hdrLen; bad || len(data)-want < layout.Total {
				break
			}
			want += layout.Total
		}
		if len(out) != want || (sticky != nil) != bad {
			t.Fatalf("delivered %d bytes, error %v; the input holds %d bytes of messages, bad header %v",
				len(out), sticky, want, bad)
		}
	})
}

// rxIntoTracking builds a receive engine over NVMe-TCP framing (digests
// only: no RR table, so nothing is placed) whose packet carrying the bytes
// at lostOff is lost, so it speculates on the next header it sees and asks
// mb to confirm. Messages are msgLen bytes, packets pktLen; the stream
// starts at base.
func rxIntoTracking(t *testing.T, mb *l5p.ResyncMailbox, model *cycles.Model, ledger *cycles.Ledger,
	base uint32, stream []byte, pktLen, lostOff int) *offload.RxEngine {
	t.Helper()
	e := offload.NewRxEngine(nvmetcp.NewRxOps(model, ledger, nil), base, mb)
	for off := 0; off < len(stream); off += pktLen {
		if off == lostOff {
			continue
		}
		e.Process(base+uint32(off), stream[off:min(off+pktLen, len(stream))], false)
	}
	if e.Stats.ResyncRequests != 1 {
		t.Fatalf("engine made %d resync requests, want 1", e.Stats.ResyncRequests)
	}
	return e
}

// TestResyncMailbox drives the request/answer protocol against a real
// engine with sequence numbers crossing 2^32: a guess ahead of the software
// stream waits, a guess at a message start is confirmed, one inside a
// message is refuted, and each side of the exchange is charged once.
func TestResyncMailbox(t *testing.T) {
	const msgLen = 200
	base := uint32(0xFFFFFF00) // message 1 ends past the wrap
	model := cycles.DefaultModel()
	// capsule builds a response capsule n bytes long on the wire, header
	// digest and data digest valid.
	capsule := func(n int) []byte {
		data := make([]byte, n-nvmetcp.HeaderLen-nvmetcp.DigestLen)
		return nvmetcp.Build(&nvmetcp.Header{Type: nvmetcp.TypeResp, DataLen: len(data)}, data, false)
	}
	var stream []byte
	for i := 0; i < 4; i++ {
		stream = append(stream, capsule(msgLen)...)
	}
	upcalls := func(l *cycles.Ledger) (req, resp float64) {
		return l.Get(cycles.HostDriver, cycles.Driver).Cycles / model.ResyncUpcallCost,
			l.Get(cycles.HostL5P, cycles.Driver).Cycles / model.ResyncUpcallCost
	}

	t.Run("confirm", func(t *testing.T) {
		ledger := &cycles.Ledger{}
		mb := l5p.ResyncMailbox{Model: &model, Ledger: ledger}
		// Message 1 is lost whole: the engine guesses message 2's header.
		e := rxIntoTracking(t, &mb, &model, ledger, base, stream, msgLen, msgLen)
		for idx := uint64(0); idx < 2; idx++ {
			if mb.Answer(e, base+uint32(idx)*msgLen, msgLen, idx) {
				t.Fatalf("answered at message %d, before the stream reached the guess", idx)
			}
		}
		if mb.Answer(nil, base+2*msgLen, msgLen, 2) {
			t.Fatal("answered with no engine attached")
		}
		if !mb.Answer(e, base+2*msgLen, msgLen, 2) || e.Stats.ResyncConfirms != 1 {
			t.Fatalf("guess at message 2's start not confirmed (confirms=%d)", e.Stats.ResyncConfirms)
		}
		if mb.Answer(e, base+3*msgLen, msgLen, 3) {
			t.Error("answered twice")
		}
		if req, resp := upcalls(ledger); req != 1 || resp != 1 {
			t.Errorf("charged %v request and %v response upcalls, want 1 and 1", req, resp)
		}
	})

	t.Run("refute", func(t *testing.T) {
		// Message 1's second half looks like a message of its own, header
		// digest included.
		forged := append([]byte(nil), stream...)
		copy(forged[msgLen+msgLen/2:], capsule(msgLen/2))
		ledger := &cycles.Ledger{}
		mb := l5p.ResyncMailbox{Model: &model, Ledger: ledger}
		e := rxIntoTracking(t, &mb, &model, ledger, base, forged[:2*msgLen], msgLen/2, msgLen)
		if mb.Answer(e, base, msgLen, 0) {
			t.Fatal("answered before the stream reached the guess")
		}
		if !mb.Answer(e, base+msgLen, msgLen, 1) || e.Stats.ResyncRejects != 1 {
			t.Fatalf("guess inside message 1 not refuted (rejects=%d)", e.Stats.ResyncRejects)
		}
	})

	t.Run("reset", func(t *testing.T) {
		ledger := &cycles.Ledger{}
		mb := l5p.ResyncMailbox{Model: &model, Ledger: ledger}
		old := rxIntoTracking(t, &mb, &model, ledger, base, stream, msgLen, msgLen)
		mb.Reset() // the engine is detached
		if mb.Answer(old, base+2*msgLen, msgLen, 2) || old.Stats.ResyncConfirms != 0 {
			t.Error("a request from before Reset was answered")
		}
		if _, resp := upcalls(ledger); resp != 0 {
			t.Errorf("charged %v response upcalls for a dropped request", resp)
		}
	})
}

// fakeRing is a send ring over one slice holding the whole stream from
// base. It records the retention floor, serves nothing below it once one is
// set, and hands a range that crosses stream offset wrapAt out in two
// pieces, as a ring that wraps there would.
type fakeRing struct {
	base   uint32
	data   []byte
	floor  uint32
	keep   bool
	wrapAt int
}

func (f *fakeRing) RetainFrom(seq uint32) { f.floor, f.keep = seq, true }
func (f *fakeRing) ReleaseRetained()      { f.keep = false }
func (f *fakeRing) ReadSent(from, to uint32) (head, tail []byte, ok bool) {
	off, end := int(int32(from-f.base)), int(int32(to-f.base))
	if off < 0 || end < off || end > len(f.data) || f.keep && int32(from-f.floor) < 0 {
		return nil, nil, false
	}
	if off < f.wrapAt && f.wrapAt < end {
		return f.data[off:f.wrapAt], f.data[f.wrapAt:end], true
	}
	return f.data[off:end], nil, true
}

// TestTxRetainerPruning verifies retained messages are dropped only after
// full acknowledgment, that lookups honor message boundaries, and that the
// bytes come from the ring: in place when the range is contiguous there,
// stitched when it wraps.
func TestTxRetainerPruning(t *testing.T) {
	for _, base := range []uint32{1000, 0xFFFFFFF0} { // the second run straddles 2^32
		model := cycles.DefaultModel()
		ledger := &cycles.Ledger{}
		ring := &fakeRing{base: base, data: make([]byte, 84), wrapAt: 40}
		r := l5p.TxRetainer{Model: &model, Ledger: ledger, Ring: ring}
		rand.New(rand.NewSource(5)).Read(ring.data)
		msgA, msgB := ring.data[:28], ring.data[28:56]
		startB := base + uint32(len(msgA))
		r.Add(base, 0, len(msgA), base)
		r.Add(startB, 1, len(msgB), base)
		if !ring.keep || ring.floor != base {
			t.Errorf("ring floor %d (set %v), want %d", ring.floor, ring.keep, base)
		}

		if start, idx, ok := r.MsgStateAt(base + 5); !ok || start != base || idx != 0 {
			t.Errorf("MsgStateAt mid-A = (%d,%d,%v)", start, idx, ok)
		}
		if start, idx, ok := r.MsgStateAt(startB); !ok || idx != 1 || start != startB {
			t.Errorf("MsgStateAt B start = (%d,%d,%v)", start, idx, ok)
		}
		if _, _, ok := r.MsgStateAt(base - 1); ok {
			t.Error("byte before the first retained message resolved")
		}
		if _, _, ok := r.MsgStateAt(startB + uint32(len(msgB))); ok {
			t.Error("byte after the last retained message resolved")
		}
		if got := ledger.Get(cycles.HostL5P, cycles.Driver).Cycles; got != 4*model.ResyncUpcallCost {
			t.Errorf("4 upcalls charged %v cycles", got)
		}
		got, err := r.StreamBytes(base, base+8)
		if err != nil || !bytes.Equal(got, msgA[:8]) || &got[0] != &msgA[0] {
			t.Errorf("StreamBytes in A: % x, %v; want the ring's own bytes", got, err)
		}
		// A range spanning both messages is contiguous in the ring, and
		// one across the ring's end is stitched.
		got, err = r.StreamBytes(base+20, startB+4)
		if err != nil || !bytes.Equal(got, ring.data[20:32]) {
			t.Errorf("StreamBytes across A|B: % x, %v", got, err)
		}
		got, err = r.StreamBytes(base+30, base+50)
		if err != nil || !bytes.Equal(got, ring.data[30:50]) || &got[0] == &ring.data[30] {
			t.Errorf("StreamBytes across the ring's end: % x, %v; want a stitched copy", got, err)
		}
		if _, err := r.StreamBytes(base+20, startB+uint32(len(msgB))+1); err == nil {
			t.Error("range past the retained messages served")
		}
		if _, err := r.StreamBytes(base+8, base); err == nil {
			t.Error("backwards range served")
		}
		// Ack through A, then add a third message: A must be pruned, and
		// the ring's floor move up to B.
		r.Add(startB+uint32(len(msgB)), 2, 28, startB)
		if _, _, ok := r.MsgStateAt(base + 2); ok {
			t.Error("pruned message still resolvable")
		}
		if _, _, ok := r.MsgStateAt(startB + 2); !ok {
			t.Error("unacked message not resolvable")
		}
		if ring.floor != startB {
			t.Errorf("ring floor %d after A was dropped, want %d", ring.floor, startB)
		}
		r.Close()
		if _, _, ok := r.MsgStateAt(startB + 2); ok || ring.keep {
			t.Error("Close left a message retained or the ring's floor set")
		}
	}
}

// TestTxRetainerRelease drives a retainer with random messages and
// acknowledgments: a message is dropped exactly when an Add is given an
// acknowledgment at or past its end, and after every Add the ring's
// retention floor is the start of the oldest message still retained.
func TestTxRetainerRelease(t *testing.T) {
	for _, base := range []uint32{1000, 0xFFFFF000} {
		model := cycles.DefaultModel()
		ring := &fakeRing{base: base}
		r := l5p.TxRetainer{Model: &model, Ledger: &cycles.Ledger{}, Ring: ring}
		rng := rand.New(rand.NewSource(int64(base)))
		next, acked := base, base
		var starts, ends []uint32
		oldest := 0 // the first message no acknowledgment has covered
		for i := 0; i < 200; i++ {
			n := 1 + rng.Intn(300)
			// The transport acknowledges anywhere up to what has been sent.
			acked += uint32(rng.Intn(int(next-acked) + 1))
			for oldest < len(ends) && int32(ends[oldest]-acked) <= 0 {
				oldest++
			}
			starts, ends = append(starts, next), append(ends, next+uint32(n))
			r.Add(next, uint64(i), n, acked)
			next += uint32(n)
			if !ring.keep || ring.floor != starts[oldest] {
				t.Fatalf("after Add %d: ring floor %d (set %v), want message %d's start %d",
					i, ring.floor, ring.keep, oldest, starts[oldest])
			}
			for j := 0; j <= i; j++ {
				if _, _, ok := r.MsgStateAt(starts[j]); ok != (j >= oldest) {
					t.Fatalf("after Add %d: message %d retained=%v, oldest retained %d", i, j, ok, oldest)
				}
			}
		}
		if oldest == 0 {
			t.Error("nothing was ever dropped")
		}
	}
}

// TestRetainerAddNoAlloc: retaining a message and dropping an acknowledged
// one is free once the store has grown to the window's size, and so is
// reading a replayed range back — one that wraps the ring included — once
// the retainer's scratch has grown to it.
func TestRetainerAddNoAlloc(t *testing.T) {
	model := cycles.DefaultModel()
	ring := &fakeRing{data: make([]byte, 1<<20), wrapAt: 50}
	r := l5p.TxRetainer{Model: &model, Ledger: &cycles.Ledger{}, Ring: ring}
	seq := uint32(0)
	add := func() {
		r.Add(seq, uint64(seq/100), 100, seq-800) // eight messages outstanding
		seq += 100
	}
	for i := 0; i < 32; i++ {
		add()
	}
	if n := testing.AllocsPerRun(200, add); n != 0 {
		t.Errorf("Add allocates %v times per message", n)
	}
	ring.base, ring.floor, ring.wrapAt = seq-800, seq-800, 450
	replay := func() {
		for _, from := range []uint32{seq - 800, seq - 400} { // contiguous, then wrapping
			if b, err := r.StreamBytes(from, from+100); err != nil || len(b) != 100 {
				t.Fatalf("StreamBytes: %d bytes, %v", len(b), err)
			}
		}
	}
	replay()
	if n := testing.AllocsPerRun(200, replay); n != 0 {
		t.Errorf("StreamBytes allocates %v times per replay", n)
	}
}

// TestFreeList: the buffer put back last is reused when it is large enough
// and dropped when it is not; the list never holds more than its bound.
func TestFreeList(t *testing.T) {
	var f l5p.FreeList
	big := make([]byte, 100)
	f.Put(big)
	if b := f.Get(60); len(b) != 60 || &b[0] != &big[0] {
		t.Error("Get did not reuse the buffer put back last")
	}
	f.Put(big[:60]) // comes back shorter than it is
	if b := f.Get(100); len(b) != 100 || &b[0] != &big[0] {
		t.Error("a buffer's capacity, not its length, decides reuse")
	}
	f.Put(make([]byte, 10))
	if b := f.Get(50); len(b) != 50 || cap(b) < 50 {
		t.Errorf("Get(50) returned %d bytes of capacity %d", len(b), cap(b))
	}
	for i := 0; i < 100; i++ {
		f.Put(make([]byte, 8))
	}
	held := 0
	for ; cap(f.Get(1)) == 8; held++ {
	}
	if held == 0 || held > 64 {
		t.Errorf("the list held %d of 100 buffers; it should be bounded", held)
	}
}
