package offload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/meta"
)

// testProto is a toy L5P used to exercise the generic engines:
// header = 0xA5 0x5A | 2-byte big-endian total length (4 bytes),
// trailer = 2-byte big-endian ones-sum of the body's wire bytes,
// body transform = XOR with (0x40 + msgIndex) so output depends on state.
const (
	tpHdrLen     = 4
	tpTrailerLen = 2
	tpMaxLen     = 1 << 14
)

func tpMakeMessage(body []byte, _ uint64) []byte {
	msg := make([]byte, tpHdrLen+len(body)+tpTrailerLen)
	msg[0], msg[1] = 0xA5, 0x5A
	binary.BigEndian.PutUint16(msg[2:4], uint16(len(msg)))
	copy(msg[tpHdrLen:], body)
	var sum uint16
	for _, b := range body {
		sum += uint16(b)
	}
	binary.BigEndian.PutUint16(msg[tpHdrLen+len(body):], sum)
	return msg
}

type tpEvent struct {
	kind string
	idx  uint64
	off  int
	n    int
}

// tpOps implements both RxOps and TxOps over the toy protocol, validating
// engine invariants as it goes.
type tpOps struct {
	t *testing.T

	inMsg    bool
	blind    bool
	idx      uint64
	layout   MsgLayout
	sum      uint16
	wantSum  [tpTrailerLen]byte
	trailerN int
	nextOff  int // expected next body offset (continuity invariant)

	pktProcessed bool
	events       []tpEvent

	completed uint64
	failed    uint64
	blindDone uint64
}

func (o *tpOps) HeaderLen() int { return tpHdrLen }

func (o *tpOps) ParseHeader(hdr []byte) (MsgLayout, bool) {
	if len(hdr) != tpHdrLen {
		o.t.Fatalf("ParseHeader got %d bytes", len(hdr))
	}
	if hdr[0] != 0xA5 || hdr[1] != 0x5A {
		return MsgLayout{}, false
	}
	total := int(binary.BigEndian.Uint16(hdr[2:4]))
	if total < tpHdrLen+tpTrailerLen || total > tpMaxLen {
		return MsgLayout{}, false
	}
	return MsgLayout{Total: total, Header: tpHdrLen, Trailer: tpTrailerLen}, true
}

func (o *tpOps) begin(layout MsgLayout, idx uint64, skip int, blind bool) {
	if o.inMsg {
		o.t.Error("BeginMessage while a message is in flight")
	}
	o.inMsg = true
	o.blind = blind
	o.idx = idx
	o.layout = layout
	o.sum = 0
	o.trailerN = 0
	o.nextOff = skip
	o.events = append(o.events, tpEvent{kind: "begin", idx: idx, off: skip})
}

func (o *tpOps) BeginMessage(layout MsgLayout, hdr []byte, idx uint64) {
	if got, ok := o.ParseHeader(hdr); !ok || got != layout {
		o.t.Error("BeginMessage header/layout mismatch")
	}
	o.begin(layout, idx, 0, false)
}

func (o *tpOps) ResumeMessage(layout MsgLayout, hdr []byte, idx uint64, skip int) {
	o.begin(layout, idx, skip, true)
}

func (o *tpOps) NoteDiscontinuity() {
	o.events = append(o.events, tpEvent{kind: "discont"})
}

func (o *tpOps) Body(_ uint32, data []byte, off int) {
	if !o.inMsg {
		o.t.Fatal("Body outside a message")
	}
	if off != o.nextOff {
		o.t.Errorf("Body offset %d, want %d (discontinuous processing)", off, o.nextOff)
	}
	o.nextOff = off + len(data)
	o.pktProcessed = true
	x := byte(0x40 + o.idx)
	for i := range data {
		o.sum += uint16(data[i])
		data[i] ^= x
	}
	o.events = append(o.events, tpEvent{kind: "body", idx: o.idx, off: off, n: len(data)})
}

func (o *tpOps) ReplayBody(data []byte, off int) {
	if off != o.nextOff {
		o.t.Errorf("ReplayBody offset %d, want %d", off, o.nextOff)
	}
	o.nextOff = off + len(data)
	for _, b := range data {
		o.sum += uint16(b)
	}
	o.events = append(o.events, tpEvent{kind: "replay", idx: o.idx, off: off, n: len(data)})
}

func (o *tpOps) Trailer(_ uint32, data []byte, off int) {
	if !o.inMsg {
		o.t.Fatal("Trailer outside a message")
	}
	o.pktProcessed = true
	// RX semantics: collect wire trailer. TX semantics: fill computed sum.
	var want [tpTrailerLen]byte
	binary.BigEndian.PutUint16(want[:], o.sum)
	for i := range data {
		o.wantSum[off+i] = data[i] // what the wire said
		data[i] = want[off+i]      // what we computed (TX fill; RX tests ignore)
	}
	o.trailerN += len(data)
	o.events = append(o.events, tpEvent{kind: "trailer", idx: o.idx, off: off, n: len(data)})
}

func (o *tpOps) EndMessage() bool {
	ok := true
	if o.blind {
		o.blindDone++
	} else if o.trailerN == tpTrailerLen {
		ok = binary.BigEndian.Uint16(o.wantSum[:]) == o.sum
	}
	if ok {
		o.completed++
	} else {
		o.failed++
	}
	o.inMsg = false
	o.events = append(o.events, tpEvent{kind: "end", idx: o.idx})
	return ok
}

func (o *tpOps) AbortMessage() {
	o.inMsg = false
	o.events = append(o.events, tpEvent{kind: "abort", idx: o.idx})
}

func (o *tpOps) PacketVerdict(processed, checksOK bool) meta.RxFlags {
	o.pktProcessed = false
	var f meta.RxFlags
	if processed {
		f |= meta.TLSOffloaded | meta.TLSDecrypted
	}
	if processed && checksOK {
		f |= meta.TLSAuthOK
	}
	return f
}

// stream builds a wire stream of messages and remembers boundaries.
type stream struct {
	data       []byte
	boundaries map[uint32]uint64 // seq → msgIndex
	base       uint32
}

func buildStream(base uint32, bodySizes []int, seed int64) *stream {
	s := &stream{boundaries: make(map[uint32]uint64), base: base}
	rng := rand.New(rand.NewSource(seed))
	for i, n := range bodySizes {
		body := make([]byte, n)
		rng.Read(body)
		s.boundaries[base+uint32(len(s.data))] = uint64(i)
		s.data = append(s.data, tpMakeMessage(body, uint64(i))...)
	}
	return s
}

// packets segments the stream into packet payloads of the given sizes.
type pkt struct {
	seq  uint32
	data []byte
}

func (s *stream) packets(sizes []int) []pkt {
	var out []pkt
	off := 0
	for _, n := range sizes {
		if off >= len(s.data) {
			break
		}
		if off+n > len(s.data) {
			n = len(s.data) - off
		}
		out = append(out, pkt{seq: s.base + uint32(off), data: append([]byte(nil), s.data[off:off+n]...)})
		off += n
	}
	if off < len(s.data) {
		out = append(out, pkt{seq: s.base + uint32(off), data: append([]byte(nil), s.data[off:]...)})
	}
	return out
}

func repeatSizes(n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = n
	}
	return out
}

func TestRxInSequence(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(1000, []int{100, 1, 0, 300, 50}, 1)
	e := NewRxEngine(ops, 1000, nil)
	for _, p := range st.packets(repeatSizes(33, 100)) {
		flags := e.Process(p.seq, p.data, false)
		if !flags.Has(meta.TLSOffloaded | meta.TLSAuthOK) {
			t.Fatalf("in-seq packet at %d not offloaded (flags %v)", p.seq, flags)
		}
	}
	if ops.completed != 5 || ops.failed != 0 {
		t.Errorf("completed=%d failed=%d, want 5/0", ops.completed, ops.failed)
	}
	if e.Stats.MsgsCompleted != 5 {
		t.Errorf("MsgsCompleted=%d", e.Stats.MsgsCompleted)
	}
	if e.State() != "offloading" {
		t.Errorf("state %s", e.State())
	}
}

func TestRxCorruptTrailerFailsCheck(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(1000, []int{64}, 2)
	st.data[len(st.data)-1] ^= 0xFF // corrupt the trailer
	e := NewRxEngine(ops, 1000, nil)
	var last meta.RxFlags
	for _, p := range st.packets(repeatSizes(16, 100)) {
		last = e.Process(p.seq, p.data, false)
	}
	if last.Has(meta.TLSAuthOK) {
		t.Error("corrupted message still flagged checksOK")
	}
	if ops.failed != 1 {
		t.Errorf("failed=%d, want 1", ops.failed)
	}
}

func TestRxRetransmissionBypassed(t *testing.T) {
	// Fig 8a: a duplicate of an already-processed packet is bypassed and
	// does not disturb the context.
	ops := &tpOps{t: t}
	st := buildStream(1000, []int{500, 500}, 3)
	e := NewRxEngine(ops, 1000, nil)
	ps := st.packets(repeatSizes(100, 100))
	for i, p := range ps {
		e.Process(p.seq, append([]byte(nil), p.data...), false)
		if i == 3 {
			// Duplicate of packet 2 arrives again.
			dup := ps[2]
			flags := e.Process(dup.seq, append([]byte(nil), dup.data...), false)
			if flags.Has(meta.TLSOffloaded) {
				t.Error("duplicate packet was offloaded")
			}
		}
	}
	if e.Stats.PktsBypassed != 1 {
		t.Errorf("PktsBypassed=%d, want 1", e.Stats.PktsBypassed)
	}
	if ops.completed != 2 || ops.failed != 0 {
		t.Errorf("completed=%d failed=%d, want 2/0", ops.completed, ops.failed)
	}
}

func TestRxDataLossRelock(t *testing.T) {
	// Fig 8b: a mid-message packet is lost; the next packet contains the
	// following message's header, so the engine re-locks deterministically
	// and resumes at the next packet.
	ops := &tpOps{t: t}
	st := buildStream(1000, []int{250, 250, 250}, 4)
	e := NewRxEngine(ops, 1000, nil)
	ps := st.packets(repeatSizes(100, 100))
	var offloaded []int
	for i, p := range ps {
		if i == 1 {
			continue // lost: bytes [1100, 1200)
		}
		flags := e.Process(p.seq, p.data, false)
		if flags.Has(meta.TLSOffloaded) {
			offloaded = append(offloaded, i)
		}
	}
	if e.Stats.Relocks != 1 {
		t.Fatalf("Relocks=%d, want 1 (state=%s)", e.Stats.Relocks, e.State())
	}
	// Packet 0 offloaded; packet 2 (contains msg2's header at 1256) is the
	// re-lock packet and is NOT offloaded; packets 3+ are offloaded again.
	if len(offloaded) == 0 || offloaded[0] != 0 {
		t.Fatalf("offloaded=%v", offloaded)
	}
	for _, i := range offloaded {
		if i == 2 {
			t.Error("re-lock packet was offloaded; hardware resumes at the next packet")
		}
	}
	if offloaded[len(offloaded)-1] != len(ps)-1 {
		t.Errorf("offloading did not continue to the last packet: %v", offloaded)
	}
	if e.Stats.MsgsBlind == 0 {
		t.Error("expected the re-locked message to be blind-resumed")
	}
}

// confirmHarness simulates L5P software answering resync requests from
// ground truth, with an optional delay measured in packets.
type confirmHarness struct {
	st      *stream
	e       *RxEngine
	pending []uint32
	delay   int
	queue   []delayedResp
}

type delayedResp struct {
	seq   uint32
	after int
}

func (h *confirmHarness) request(seq uint32) {
	h.queue = append(h.queue, delayedResp{seq: seq, after: h.delay})
}

func (h *confirmHarness) tick() {
	var rest []delayedResp
	for _, r := range h.queue {
		if r.after > 0 {
			r.after--
			rest = append(rest, r)
			continue
		}
		idx, ok := h.st.boundaries[r.seq]
		h.e.ResyncResponse(r.seq, ok, idx)
	}
	h.queue = rest
}

func TestRxHeaderLossRecovery(t *testing.T) {
	// Fig 8c: the packet containing the next message header is lost. The
	// engine searches for the magic pattern, requests confirmation, tracks
	// messages, and resumes after the confirmation arrives.
	for _, delay := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("delay%d", delay), func(t *testing.T) {
			ops := &tpOps{t: t}
			st := buildStream(1000, repeatSizes(150, 12), 5)
			var e *RxEngine
			h := &confirmHarness{st: st, delay: delay}
			e = NewRxEngine(ops, 1000, resyncFunc(h.request))
			h.e = e

			ps := st.packets(repeatSizes(100, 100))
			// Lose the packet containing message 1's header (msg0 wire len
			// 156, so header at 1156 is inside packet index 1).
			var offloaded []int
			for i, p := range ps {
				if i == 1 {
					continue
				}
				flags := e.Process(p.seq, p.data, false)
				h.tick()
				if flags.Has(meta.TLSOffloaded) {
					offloaded = append(offloaded, i)
				}
			}
			if e.Stats.ResyncRequests == 0 {
				t.Fatal("no resync request issued")
			}
			if e.Stats.ResyncConfirms == 0 {
				t.Fatalf("no confirmation processed (state %s)", e.State())
			}
			if e.State() != "offloading" {
				t.Fatalf("engine did not resume offloading: %s", e.State())
			}
			if len(offloaded) < 2 || offloaded[len(offloaded)-1] != len(ps)-1 {
				t.Errorf("offloading did not resume through the end: %v", offloaded)
			}
		})
	}
}

func TestRxResyncReject(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(1000, repeatSizes(200, 8), 6)
	e := NewRxEngine(ops, 1000, nil)
	// Force searching by processing a far-future packet.
	ps := st.packets(repeatSizes(90, 100))
	e.Process(ps[0].seq, ps[0].data, false)
	e.Process(ps[5].seq, ps[5].data, false)
	if e.State() == "offloading" {
		t.Fatalf("engine should have lost sync")
	}
	if e.State() == "tracking" {
		// Reject the candidate: must fall back to searching.
		e.ResyncResponse(e.candidateSeq, false, 0)
		if e.State() != "searching" {
			t.Errorf("after reject: state %s, want searching", e.State())
		}
		if e.Stats.ResyncRejects != 1 {
			t.Errorf("ResyncRejects=%d", e.Stats.ResyncRejects)
		}
	}
}

func TestRxStaleResponseIgnored(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(1000, repeatSizes(200, 8), 7)
	e := NewRxEngine(ops, 1000, nil)
	ps := st.packets(repeatSizes(90, 100))
	e.Process(ps[0].seq, ps[0].data, false)
	// A response that was never requested must be ignored.
	e.ResyncResponse(4242, true, 3)
	if e.State() != "offloading" {
		t.Errorf("stale response changed state to %s", e.State())
	}
}

func TestRxSearchSplitPattern(t *testing.T) {
	// The magic pattern split across two consecutive packets must still be
	// found while searching.
	ops := &tpOps{t: t}
	st := buildStream(1000, repeatSizes(100, 20), 8)
	e := NewRxEngine(ops, 1000, nil)
	// Desync immediately with garbage at an unexpected seq.
	e.Process(5_000_000, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false)
	if e.State() != "searching" {
		t.Fatalf("state %s", e.State())
	}
	// Feed the real stream from a message boundary, in tiny 2-byte packets
	// (the 4-byte header always spans packets).
	var bseq uint32
	for s := range st.boundaries {
		if st.boundaries[s] == 3 {
			bseq = s
		}
	}
	off := int(bseq - st.base)
	for i := off; i < off+400; i += 2 {
		e.Process(st.base+uint32(i), st.data[i:i+2], false)
		if e.State() == "tracking" {
			break
		}
	}
	if e.State() != "tracking" {
		t.Fatalf("split pattern never found: state %s", e.State())
	}
	if e.candidateSeq != bseq {
		t.Errorf("candidate at %d, want %d", e.candidateSeq, bseq)
	}
}

func TestRxRandomImpairments(t *testing.T) {
	// Property: under random loss the engine must (a) never violate ops
	// continuity invariants (checked inside tpOps), (b) never fail an
	// integrity check on uncorrupted data, and (c) keep offloading packets
	// after recovery.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nMsgs := 30 + rng.Intn(30)
		sizes := make([]int, nMsgs)
		for i := range sizes {
			sizes[i] = rng.Intn(700)
		}
		st := buildStream(uint32(rng.Intn(1<<30)), sizes, seed)
		ops := &tpOps{t: t}
		h := &confirmHarness{st: st, delay: rng.Intn(4)}
		e := NewRxEngine(ops, st.base, resyncFunc(h.request))
		h.e = e

		pktSizes := make([]int, 0, len(st.data)/50+1)
		for total := 0; total < len(st.data); {
			n := 1 + rng.Intn(300)
			pktSizes = append(pktSizes, n)
			total += n
		}
		ps := st.packets(pktSizes)
		lastOffloaded := -1
		for i, p := range ps {
			if rng.Float64() < 0.08 {
				continue // lost
			}
			flags := e.Process(p.seq, append([]byte(nil), p.data...), false)
			h.tick()
			if flags.Has(meta.TLSOffloaded) {
				lastOffloaded = i
			}
		}
		if ops.failed != 0 {
			t.Errorf("seed %d: %d integrity failures on clean data", seed, ops.failed)
		}
		_ = lastOffloaded
	}
}

// --- Transmit engine tests ---

type txHarness struct {
	st *stream
}

func (h *txHarness) MsgStateAt(seq uint32) (uint32, uint64, bool) {
	// Find the message containing seq.
	var bestSeq uint32
	var bestIdx uint64
	found := false
	for s, idx := range h.st.boundaries {
		if seqSub(s, seq) <= 0 && (!found || seqSub(bestSeq, s) < 0) {
			bestSeq, bestIdx, found = s, idx, true
		}
	}
	return bestSeq, bestIdx, found
}

func (h *txHarness) StreamBytes(from, to uint32) ([]byte, error) {
	start := seqSub(from, h.st.base)
	end := seqSub(to, h.st.base)
	if start < 0 || end > len(h.st.data) || start > end {
		return nil, fmt.Errorf("range out of bounds")
	}
	return h.st.data[start:end], nil
}

func TestTxInSequence(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(5000, []int{100, 200, 300}, 10)
	h := &txHarness{st: st}
	e := NewTxEngine(ops, h, 5000)
	for _, p := range st.packets(repeatSizes(77, 100)) {
		if !e.Process(p.seq, p.data) {
			t.Fatal("in-seq tx packet not processed")
		}
	}
	if ops.completed != 3 {
		t.Errorf("completed=%d, want 3", ops.completed)
	}
	if e.Stats.Recoveries != 0 {
		t.Errorf("unexpected recoveries: %d", e.Stats.Recoveries)
	}
}

func TestTxRetransmissionRecovery(t *testing.T) {
	// Process a stream, then retransmit a middle packet: the recovered
	// output must be byte-identical to the original transmission.
	st := buildStream(5000, []int{400, 400, 400}, 11)
	h := &txHarness{st: st}

	ops := &tpOps{t: t}
	e := NewTxEngine(ops, h, 5000)
	ps := st.packets(repeatSizes(100, 100))
	original := make(map[uint32][]byte)
	for _, p := range ps {
		out := append([]byte(nil), p.data...)
		e.Process(p.seq, out)
		original[p.seq] = out
	}

	// Retransmit packet 5 (mid-message): triggers recovery.
	re := append([]byte(nil), ps[5].data...)
	if !e.Process(ps[5].seq, re) {
		t.Fatal("recovery failed")
	}
	if e.Stats.Recoveries != 1 {
		t.Fatalf("Recoveries=%d, want 1", e.Stats.Recoveries)
	}
	if string(re) != string(original[ps[5].seq]) {
		t.Error("recovered retransmission differs from original output")
	}
	if e.Stats.RecoveryDMABytes == 0 {
		t.Error("recovery charged no DMA bytes")
	}

	// Now continue from where the retransmission left off: the engine must
	// recover forward too (the gap between packet 6 and current state).
	re6 := append([]byte(nil), ps[6].data...)
	if !e.Process(ps[6].seq, re6) {
		t.Fatal("forward recovery failed")
	}
	if string(re6) != string(original[ps[6].seq]) {
		t.Error("packet 6 output differs after recovery")
	}
}

func TestTxRecoveryDMAAccounting(t *testing.T) {
	// The DMA read during recovery spans from the message start to the
	// retransmitted packet (Fig. 6).
	st := buildStream(5000, []int{1000}, 12)
	h := &txHarness{st: st}
	ops := &tpOps{t: t}
	e := NewTxEngine(ops, h, 5000)
	ps := st.packets(repeatSizes(100, 100))
	for _, p := range ps {
		e.Process(p.seq, append([]byte(nil), p.data...))
	}
	e.Process(ps[7].seq, append([]byte(nil), ps[7].data...))
	want := uint64(ps[7].seq - 5000) // message starts at stream base
	if e.Stats.RecoveryDMABytes != want {
		t.Errorf("RecoveryDMABytes=%d, want %d", e.Stats.RecoveryDMABytes, want)
	}
}

func TestTxRecoveryUnavailable(t *testing.T) {
	st := buildStream(5000, []int{100}, 13)
	ops := &tpOps{t: t}
	e := NewTxEngine(ops, failingSource{}, 5000)
	ps := st.packets([]int{50, 56})
	if !e.Process(ps[0].seq, append([]byte(nil), ps[0].data...)) {
		t.Fatal("first packet failed")
	}
	// Jump without a source that can recover: packet must be skipped.
	if e.Process(ps[1].seq+1000, []byte{1, 2, 3}) {
		t.Error("engine claimed to process an unrecoverable packet")
	}
	if e.Stats.PktsSkipped != 1 {
		t.Errorf("PktsSkipped=%d", e.Stats.PktsSkipped)
	}
}

type failingSource struct{}

func (failingSource) MsgStateAt(uint32) (uint32, uint64, bool) { return 0, 0, false }
func (failingSource) StreamBytes(uint32, uint32) ([]byte, error) {
	return nil, fmt.Errorf("gone")
}

func TestTxRandomRetransmits(t *testing.T) {
	// Property: any retransmission pattern reproduces the original bytes.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		sizes := make([]int, 20)
		for i := range sizes {
			sizes[i] = rng.Intn(500)
		}
		st := buildStream(uint32(rng.Intn(1<<30)), sizes, seed)
		h := &txHarness{st: st}
		ops := &tpOps{t: t}
		e := NewTxEngine(ops, h, st.base)

		pktSizes := make([]int, 0)
		for total := 0; total < len(st.data); {
			n := 1 + rng.Intn(400)
			pktSizes = append(pktSizes, n)
			total += n
		}
		ps := st.packets(pktSizes)
		original := make(map[uint32][]byte)
		for _, p := range ps {
			out := append([]byte(nil), p.data...)
			e.Process(p.seq, out)
			original[p.seq] = out
		}
		for k := 0; k < 15; k++ {
			p := ps[rng.Intn(len(ps))]
			out := append([]byte(nil), p.data...)
			if !e.Process(p.seq, out) {
				t.Fatalf("seed %d: recovery failed", seed)
			}
			if string(out) != string(original[p.seq]) {
				t.Fatalf("seed %d: retransmit of %d produced different bytes", seed, p.seq)
			}
		}
	}
}
