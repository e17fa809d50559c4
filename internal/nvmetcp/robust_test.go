package nvmetcp

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/blockdev"
	"repro/internal/crc32c"
	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// fakeStream is a transport under the test's control: it records what is
// written, lets the test inject received chunks, and can lie about its
// write space (shortBy) to provoke a short write.
type fakeStream struct {
	model   cycles.Model
	ledger  cycles.Ledger
	onData  func(tcpip.Chunk)
	written [][]byte
	discard bool // count what is written, keep none of it
	seq     uint32
	acked   uint32
	shortBy int
}

func newFakeStream() *fakeStream {
	return &fakeStream{model: cycles.DefaultModel(), seq: 1, acked: 1}
}

func (f *fakeStream) Write(p []byte) int { return f.WriteZC(p) }
func (f *fakeStream) WriteZC(p []byte) int {
	p = p[:len(p)-f.shortBy]
	if !f.discard {
		f.written = append(f.written, bytes.Clone(p)) // as a transport does: the writer recycles p
	}
	f.seq += uint32(len(p))
	return len(p)
}
func (f *fakeStream) WriteSpace() int                { return 1 << 30 }
func (f *fakeStream) WriteSeq() uint32               { return f.seq }
func (f *fakeStream) AckedSeq() uint32               { return f.acked }
func (f *fakeStream) ReadSeq() uint32                { return 1 }
func (f *fakeStream) SetOnData(fn func(tcpip.Chunk)) { f.onData = fn }
func (f *fakeStream) SetOnError(func(error))         {}
func (f *fakeStream) SetOnDrain(func())              {}
func (f *fakeStream) Flow() wire.FlowID              { return wire.FlowID{} }
func (f *fakeStream) Model() *cycles.Model           { return &f.model }
func (f *fakeStream) Ledger() *cycles.Ledger         { return &f.ledger }
func (f *fakeStream) Close()                         {}

// wildOffsets are response offsets a corrupt or hostile target can send
// with a perfectly valid header digest. Converted to int the first is
// negative, which used to slip past the signed bounds checks and panic.
var wildOffsets = []uint64{1<<63 + 5, 1 << 62, 4096 - 10, 4097}

// TestRxOpsSkipsPlacementOutsideBuffer: the NIC places a response only
// when its whole data range lies inside the registered buffer; otherwise
// the packet is still digest-checked but not flagged NVMePlaced.
func TestRxOpsSkipsPlacementOutsideBuffer(t *testing.T) {
	model := cycles.DefaultModel()
	data := bytes.Repeat([]byte{0xAB}, 64)
	for _, off := range append([]uint64{128}, wildOffsets...) {
		buf := make([]byte, 4096)
		rr := NewRRTable()
		rr.Add(7, buf)
		e := offload.NewRxEngine(NewRxOps(&model, &cycles.Ledger{}, rr), 1, nil)
		pdu := Build(&Header{Type: TypeResp, CID: 7, Op: StatusOK, Offset: off, DataLen: len(data)}, data, false)
		flags := e.Process(1, pdu, false)
		if !flags.Has(meta.NVMeOffloaded | meta.NVMeCRCOK) {
			t.Errorf("offset %#x: flags %v, want the digest still verified", off, flags)
		}
		inside := off == 128
		if flags.Has(meta.NVMePlaced) != inside {
			t.Errorf("offset %#x: NVMePlaced=%v, want %v", off, flags.Has(meta.NVMePlaced), inside)
		}
		if touched := !bytes.Equal(buf, make([]byte, len(buf))); touched != inside {
			t.Errorf("offset %#x: buffer written=%v, want %v", off, touched, inside)
		}
	}
}

// TestHostRejectsDataOutsideBuffer: a response whose data range does not
// lie inside the request's buffer fails that request; it does not panic
// and writes nothing.
func TestHostRejectsDataOutsideBuffer(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 64)
	for _, off := range wildOffsets {
		fs := newFakeStream()
		h := NewHost(fs)
		buf := make([]byte, 4096)
		var got error
		calls := 0
		h.ReadBlocks(0, 1, buf, func(err error) { got = err; calls++ })
		pdu := Build(&Header{Type: TypeResp, CID: 1, Op: StatusOK, Offset: off, DataLen: len(data)}, data, false)
		fs.onData(tcpip.Chunk{Seq: 1, Data: pdu})
		if calls != 1 || got == nil || !strings.Contains(got.Error(), "overruns buffer") {
			t.Errorf("offset %#x: %d completions, err %v; want one \"overruns buffer\"", off, calls, got)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Errorf("offset %#x: buffer written", off)
		}
	}
}

// TestShortWriteKillsAssociation: a transport that accepts less than its
// advertised space leaves half a capsule in the stream. Both ends surface
// that through OnError — the host failing its in-flight requests — and
// send nothing further, instead of panicking.
func TestShortWriteKillsAssociation(t *testing.T) {
	t.Run("host", func(t *testing.T) {
		fs := newFakeStream()
		h := NewHost(fs)
		var reqErr, assocErr error
		h.OnError = func(err error) { assocErr = err }
		h.ReadBlocks(0, 1, make([]byte, 4096), func(err error) { reqErr = err })
		fs.shortBy = 3
		h.ReadBlocks(8, 1, make([]byte, 4096), func(error) {})
		if assocErr == nil || !strings.Contains(assocErr.Error(), "short write") || reqErr != assocErr {
			t.Fatalf("OnError got %v, in-flight request got %v", assocErr, reqErr)
		}
		h.ReadBlocks(16, 1, make([]byte, 4096), func(error) {})
		if len(fs.written) != 2 {
			t.Errorf("%d writes reached the broken stream, want 2", len(fs.written))
		}
	})
	t.Run("controller", func(t *testing.T) {
		fs := newFakeStream()
		c := NewController(fs, nil)
		var assocErr error
		c.OnError = func(err error) { assocErr = err }
		fs.shortBy = 3
		// A write whose data digest is wrong is answered at once, no SSD involved.
		cmd := Build(&Header{Type: TypeCmd, CID: 9, Op: OpWrite, DataLen: 4096}, make([]byte, 4096), true)
		fs.onData(tcpip.Chunk{Seq: 1, Data: cmd})
		if assocErr == nil || !strings.Contains(assocErr.Error(), "short write") {
			t.Fatalf("OnError got %v", assocErr)
		}
		fs.onData(tcpip.Chunk{Seq: 1 + uint32(len(cmd)), Data: cmd})
		if len(fs.written) != 1 || c.Stats.CmdsWrite != 1 {
			t.Errorf("dead controller kept serving: %d writes, %d commands", len(fs.written), c.Stats.CmdsWrite)
		}
	})
}

// ctrlHarness is a Controller on a fakeStream with a real (latency-free)
// device behind it, for feeding command bytes without a network.
type ctrlHarness struct {
	sim  *netsim.Simulator
	fs   *fakeStream
	dev  *blockdev.Device
	c    *Controller
	errs []error
	next uint32 // sequence number of the next injected byte
}

func newCtrlHarness() *ctrlHarness {
	h := &ctrlHarness{sim: netsim.New(), fs: newFakeStream(), next: 1}
	h.dev = blockdev.New(h.sim, blockdev.Config{})
	h.c = NewController(h.fs, h.dev)
	h.c.OnError = func(err error) { h.errs = append(h.errs, err) }
	return h
}

// inject delivers p as in-order stream bytes and lets the device finish.
func (h *ctrlHarness) inject(p []byte) {
	h.fs.onData(tcpip.Chunk{Seq: h.next, Data: p})
	h.next += uint32(len(p))
	h.sim.RunFor(time.Second)
}

// responses decodes what the controller wrote (one capsule per write).
func (h *ctrlHarness) responses() []Header {
	var out []Header
	for _, pdu := range h.fs.written {
		out = append(out, Decode(pdu))
	}
	return out
}

// TestControllerRefusesTransferSizes: a command whose size the device
// cannot take — a write that is not whole blocks (which used to panic the
// target in blockdev.Write), a read of more than MaxTransferBlocks (which
// used to allocate whatever the 24-bit count said), or either with nothing
// to move — gets an error response, kills the association through OnError
// and never reaches the device.
func TestControllerRefusesTransferSizes(t *testing.T) {
	write := func(n int) []byte {
		return Build(&Header{Type: TypeCmd, CID: 9, Op: OpWrite, Offset: 500, DataLen: n}, make([]byte, n), false)
	}
	read := func(count int) []byte {
		return Build(&Header{Type: TypeCmd, CID: 9, Op: OpRead, Offset: EncodeReadCmd(500, count)}, nil, false)
	}
	for _, tc := range []struct {
		name string
		cmd  []byte
	}{
		{"unaligned write", write(blockdev.BlockSize + 100)},
		{"empty write", write(0)},
		{"oversized read", read(MaxTransferBlocks + 1)},
		{"empty read", read(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newCtrlHarness()
			h.inject(tc.cmd)
			if len(h.errs) != 1 {
				t.Fatalf("OnError fired %d times (%v), want once", len(h.errs), h.errs)
			}
			resp := h.responses()
			if len(resp) != 1 || resp[0].Type != TypeResp || resp[0].CID != 9 || resp[0].Op != StatusInvalidField || resp[0].DataLen != 0 {
				t.Fatalf("responses %+v, want one StatusInvalidField for CID 9", resp)
			}
			if h.dev.Stats != (blockdev.Stats{}) {
				t.Errorf("device was called: %+v", h.dev.Stats)
			}
			h.inject(read(1))
			if len(h.fs.written) != 1 || h.c.Stats.CmdsRead+h.c.Stats.CmdsWrite != 1 {
				t.Errorf("dead controller kept serving: %d capsules out, stats %+v", len(h.fs.written), h.c.Stats)
			}
		})
	}
	// The bound itself is served.
	h := newCtrlHarness()
	h.inject(read(MaxTransferBlocks))
	h.inject(write(MaxDataLen))
	if len(h.errs) != 0 || h.dev.Stats.BytesRead != MaxDataLen || h.dev.Stats.BytesWrite != MaxDataLen {
		t.Errorf("transfer of exactly the bound: errors %v, device %+v", h.errs, h.dev.Stats)
	}
}

// FuzzController feeds a Controller a command stream decoded from the fuzz
// input — well-framed capsules with arbitrary type, opcode, CID, LBA, count
// and length, good or bad data digests, and runs of bytes that do not
// frame — cut into arbitrary segments, and checks it against a model of
// which commands a target serves: it never panics, the device moves exactly
// the bytes of the commands the model accepts (so never more than
// MaxTransferBlocks for one), every command is answered, and the first
// refused command or unframeable byte fires OnError once and ends service.
// A tail of raw bytes follows, held only to "no panic, no command past the
// bound".
func FuzzController(f *testing.F) {
	// op byte: bits 0-1 select read / write / garbage / another opcode,
	// bit 2 a response-typed capsule, bit 3 a bad data digest; then CID,
	// 3 bytes of count or length, 1 byte of LBA.
	// Short seeds: the fuzzer minimizes every coverage find byte by byte.
	valid := Build(&Header{Type: TypeCmd, CID: 3, Op: OpRead, Offset: EncodeReadCmd(9, 2)}, nil, false)
	f.Add([]byte{0, 1, 0, 0, 8, 5, 1, 2, 0, 16, 0, 7}, []byte{}, valid)                        // read 8 blocks, write 4096 bytes
	f.Add([]byte{1, 3, 0, 0, 100, 0}, []byte{0, 40}, valid[:HeaderLen-1])                      // unaligned write
	f.Add([]byte{0, 4, 255, 255, 255, 0}, []byte{27}, []byte{})                                // read of 2^24-1 blocks
	f.Add([]byte{9, 5, 0, 16, 0, 0, 2, 0, 1, 1, 0, 0, 4, 1, 0, 0, 1, 0}, []byte{3}, []byte{1}) // bad digest, garbage, dead
	f.Fuzz(func(t *testing.T, prog, cuts, tail []byte) {
		h := newCtrlHarness()
		var stream []byte
		var wantRead, wantWrite, okWrites, badDigests, rejects int
		alive := true
		for n := 0; len(prog) >= 6 && n < 8; n, prog = n+1, prog[6:] {
			op, cid := prog[0], uint16(prog[1])
			size := int(prog[2])<<16 | int(prog[3])<<8 | int(prog[4])
			lba := uint64(prog[5])
			typ := byte(TypeCmd)
			if op&4 != 0 {
				typ = TypeResp
			}
			switch op & 3 {
			case 0:
				stream = append(stream, Build(&Header{Type: typ, CID: cid, Op: OpRead, Offset: EncodeReadCmd(lba, size)}, nil, false)...)
				if alive && typ == TypeCmd {
					if size >= 1 && size <= MaxTransferBlocks {
						wantRead += size * blockdev.BlockSize
					} else {
						alive, rejects = false, rejects+1
					}
				}
			case 1:
				size %= 3*blockdev.BlockSize + 1 // keeps an execution cheap; the cap is ParseHeader's
				if size%128 < 64 {
					size -= size % blockdev.BlockSize // make aligned lengths common
				}
				badDigest := op&8 != 0 && size > 0
				stream = append(stream, Build(&Header{Type: typ, CID: cid, Op: OpWrite, Offset: lba, DataLen: size}, make([]byte, size), badDigest)...)
				if badDigest {
					stream[len(stream)-1] ^= 1 // Build left it zero; make sure it is wrong
				}
				if alive && typ == TypeCmd {
					switch {
					case size == 0 || size%blockdev.BlockSize != 0:
						alive, rejects = false, rejects+1
					case badDigest:
						badDigests++
					default:
						wantWrite, okWrites = wantWrite+size, okWrites+1
					}
				}
			case 2:
				stream = append(stream, 0xEE) // no capsule type: the stream stops framing here
				stream = append(stream, make([]byte, HeaderLen)...)
				alive = false
			case 3:
				stream = append(stream, Build(&Header{Type: typ, CID: cid, Op: 0x7F, Offset: lba}, nil, false)...)
			}
		}
		for i := 0; len(stream) > 0; i++ {
			n := len(stream)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)])*8)
			}
			h.inject(stream[:n])
			stream = stream[n:]
		}

		if (len(h.errs) == 1) != !alive || len(h.errs) > 1 {
			t.Fatalf("OnError fired %d times (%v); model says alive=%v", len(h.errs), h.errs, alive)
		}
		if got := h.dev.Stats; got.BytesRead != uint64(wantRead) || got.BytesWrite != uint64(wantWrite) {
			t.Fatalf("device moved %d read / %d written bytes, model %d / %d", got.BytesRead, got.BytesWrite, wantRead, wantWrite)
		}
		var gotRead, gotOK, gotBad, gotRejects int
		for _, r := range h.responses() {
			switch {
			case r.Op == StatusInvalidField:
				gotRejects++
			case r.Op == StatusOK && r.DataLen == 0:
				gotOK++
			case r.Op == StatusOK:
				gotRead += r.DataLen
			default:
				gotBad++
			}
		}
		if gotRead != wantRead || gotOK != okWrites || gotBad != badDigests || gotRejects != rejects {
			t.Fatalf("responses: %d read bytes, %d write OKs, %d data errors, %d refusals; model %d, %d, %d, %d",
				gotRead, gotOK, gotBad, gotRejects, wantRead, okWrites, badDigests, rejects)
		}

		// Bytes the model cannot predict (the fuzzer mutates tail freely):
		// still no panic, still no command past the bound.
		before := h.dev.Stats
		h.inject(tail)
		after := h.dev.Stats
		if after.BytesRead-before.BytesRead > (after.Reads-before.Reads)*MaxDataLen ||
			after.BytesWrite-before.BytesWrite > (after.Writes-before.Writes)*MaxDataLen || len(h.errs) > 1 {
			t.Fatalf("after the tail: device %+v -> %+v, errors %v", before, after, h.errs)
		}
	})
}

// FuzzHost feeds a Host that has three reads and a write in flight a
// response stream decoded from the fuzz input — well-framed capsules with
// arbitrary type, CID, status, offset and length, with good or bad data
// digests (no fuzzer guesses a CRC), and bytes that do not frame — cut into
// arbitrary segments. The host must never panic and must complete each
// request at most once; the first unframeable byte must fail the
// association, once, completing every request still in flight; and a read
// must never complete without error holding a byte a bad-digest capsule
// carried (those carry only 0xBD, the good ones never do). A tail of raw
// bytes follows, held only to the same.
func FuzzHost(f *testing.F) {
	// op byte: bits 0-1 select a data response / a status response /
	// garbage / a command-typed capsule, bit 2 a bad data digest, bit 3 a
	// failing status; then CID, an offset selector, 2 bytes of length and
	// a fill byte.
	// Short seeds: the fuzzer minimizes every coverage find byte by byte.
	f.Add([]byte{0, 1, 0, 16, 0, 7, 1, 4, 0, 0, 0, 0}, []byte{}, []byte{})                      // read 1 served, write acked
	f.Add([]byte{0, 2, 0, 16, 0, 9, 4, 2, 1, 16, 0, 3, 0, 3, 0, 16, 0, 5}, []byte{9}, []byte{}) // bad digest, clean read
	f.Add([]byte{0, 1, 251, 0, 64, 1, 2, 0, 0, 0, 0, 0}, []byte{2}, []byte{0x05})               // wild offset, garbage
	f.Add([]byte{11, 4, 0, 0, 0, 0, 3, 2, 0, 16, 0, 1}, []byte{}, []byte{1, 2, 3})              // failed write, command capsule
	f.Fuzz(func(t *testing.T, prog, cuts, tail []byte) {
		fs := newFakeStream()
		fs.discard = true
		h := NewHost(fs)
		errs := 0
		h.OnError = func(error) { errs++ }
		type req struct {
			buf   []byte
			calls int
			err   error
		}
		reqs := map[uint16]*req{}
		issue := func(read bool, blocks int) {
			r := &req{buf: make([]byte, blocks*blockdev.BlockSize)}
			done := func(err error) { r.calls, r.err = r.calls+1, err }
			if read {
				h.ReadBlocks(uint64(blocks), blocks, r.buf, done)
			} else {
				h.WriteBlocks(7, r.buf, done)
			}
			reqs[h.nextCID] = r
		}
		issue(true, 1)
		issue(true, 2)
		issue(true, 1)
		issue(false, 1)

		var stream []byte
		alive := true
		for n := 0; len(prog) >= 6 && n < 8; n, prog = n+1, prog[6:] {
			op, cid := prog[0], uint16(prog[1]%6)
			offset := uint64(prog[2]) * 512
			if prog[2] >= 250 {
				offset = wildOffsets[prog[2]%4]
			}
			size := (int(prog[3])<<8 | int(prog[4])) % (2*blockdev.BlockSize + 1)
			status := byte(StatusOK)
			if op&8 != 0 {
				status = 0x01
			}
			hdr := Header{Type: TypeResp, CID: cid, Op: status, Offset: offset}
			switch op & 3 {
			case 0:
				hdr.DataLen = size
			case 2:
				stream = append(stream, 0xEE) // no capsule type: the stream stops framing here
				stream = append(stream, make([]byte, HeaderLen)...)
				alive = false
				continue
			case 3:
				hdr.Type, hdr.DataLen = TypeCmd, size
			}
			bad := op&4 != 0 && hdr.DataLen > 0
			fill := prog[5] & 0x7F // never the bad-digest poison
			if bad {
				fill = 0xBD
			}
			stream = append(stream, Build(&hdr, bytes.Repeat([]byte{fill}, hdr.DataLen), false)...)
			if bad {
				stream[len(stream)-1] ^= 1
			}
		}
		inject := func(p []byte, next *uint32) {
			fs.onData(tcpip.Chunk{Seq: *next, Data: p})
			*next += uint32(len(p))
		}
		next := uint32(1)
		for i := 0; len(stream) > 0; i++ {
			n := len(stream)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)])*8)
			}
			inject(stream[:n], &next)
			stream = stream[n:]
		}
		check := func(when string) {
			t.Helper()
			for cid, r := range reqs {
				if r.calls > 1 || !h.dead && r.calls == 0 && h.pending[cid] == nil {
					t.Fatalf("%s: request %d completed %d times (pending %v)", when, cid, r.calls, h.pending[cid] != nil)
				}
				if h.dead && r.calls != 1 {
					t.Fatalf("%s: association failed, request %d completed %d times", when, cid, r.calls)
				}
				if r.calls == 1 && r.err == nil && bytes.IndexByte(r.buf, 0xBD) >= 0 {
					t.Fatalf("%s: request %d completed holding bytes of a capsule whose digest failed", when, cid)
				}
			}
			if errs > 1 || (errs == 1) != h.dead {
				t.Fatalf("%s: OnError fired %d times, association dead=%v", when, errs, h.dead)
			}
		}
		check("stream")
		if h.dead == alive {
			t.Fatalf("association dead=%v; the stream framed throughout: %v", h.dead, alive)
		}
		inject(tail, &next)
		check("tail")
	})
}

// TestLargeReadSplitsIntoCapsules: a read of more than MaxRespData comes
// back as several capsules, each a well-formed PDU carrying its share of the
// blocks — overlay or pattern — at its offset in the request buffer.
func TestLargeReadSplitsIntoCapsules(t *testing.T) {
	const lba, blocks = 500, 2*MaxRespData/blockdev.BlockSize + 3
	h := newCtrlHarness()
	overlay := bytes.Repeat([]byte{0xC7}, blockdev.BlockSize)
	h.dev.Write(lba+MaxRespData/blockdev.BlockSize, overlay, nil) // first block of the second capsule
	h.sim.Run(0)
	want := wantBlocks(lba, blocks)
	copy(want[MaxRespData:], overlay)

	h.inject(Build(&Header{Type: TypeCmd, CID: 9, Op: OpRead, Offset: EncodeReadCmd(lba, blocks)}, nil, false))
	if len(h.fs.written) != 3 {
		t.Fatalf("%d capsules for a read of %d bytes, want 3", len(h.fs.written), len(want))
	}
	off := 0
	for i, pdu := range h.fs.written {
		layout, ok := ParseHeader(pdu[:HeaderLen])
		if hdr := Decode(pdu); !ok || layout.Total != len(pdu) || hdr.CID != 9 || hdr.Op != StatusOK ||
			hdr.Offset != uint64(off) || hdr.DataLen != min(MaxRespData, len(want)-off) {
			t.Fatalf("capsule %d: header %+v (valid=%v, %d bytes) at offset %d", i, hdr, ok, len(pdu), off)
		}
		data := pdu[HeaderLen : len(pdu)-DigestLen]
		if !bytes.Equal(data, want[off:off+len(data)]) {
			t.Errorf("capsule %d carries the wrong blocks", i)
		}
		if binary.BigEndian.Uint32(pdu[len(pdu)-DigestLen:]) != crc32c.Checksum(data) {
			t.Errorf("capsule %d: bad data digest", i)
		}
		off += len(data)
	}
	if off != len(want) || h.c.Stats.BytesServed != uint64(len(want)) {
		t.Errorf("capsules carry %d bytes, BytesServed %d, want %d", off, h.c.Stats.BytesServed, len(want))
	}
}

// nopDevice accepts offload contexts and does nothing with them.
type nopDevice struct{}

func (nopDevice) AttachTx(wire.FlowID, *offload.TxEngine) {}
func (nopDevice) AttachRx(wire.FlowID, *offload.RxEngine) {}
func (nopDevice) DetachTx(wire.FlowID)                    {}
func (nopDevice) DetachRx(wire.FlowID)                    {}

// readCycle returns one steady-state turn of the target's read path on a
// transport that keeps nothing: a 256 KiB read command arrives, the device
// completes it, the response capsule is generated, digested (in software, or
// left to the NIC and retained) and written, and TCP acknowledges it.
func readCycle(offloaded bool) func() {
	h := newCtrlHarness()
	h.fs.discard = true
	if offloaded {
		h.c.EnableTxOffload(nopDevice{})
	}
	cmd := Build(&Header{Type: TypeCmd, CID: 9, Op: OpRead, Offset: EncodeReadCmd(500, MaxRespData/blockdev.BlockSize)}, nil, false)
	return func() {
		h.fs.onData(tcpip.Chunk{Seq: h.next, Data: cmd})
		h.next += uint32(len(cmd))
		h.sim.Run(0)
		h.fs.acked = h.fs.seq
	}
}

// TestControllerReadNoAlloc: at steady state the target serves a read
// without allocating — the command's bookkeeping, the device request and
// the capsule buffer are all recycled.
func TestControllerReadNoAlloc(t *testing.T) {
	for _, offloaded := range []bool{false, true} {
		cycle := readCycle(offloaded)
		for i := 0; i < 4; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Errorf("offloaded=%v: a read cycle allocates %v times", offloaded, n)
		}
	}
}

func BenchmarkControllerRead256K(b *testing.B) {
	cycle := readCycle(true)
	b.SetBytes(MaxRespData)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestHostReadNoAlloc: at steady state the initiator issues a read and
// completes it without allocating: a finished request's bookkeeping is
// reused by the next, and its buffer's RR-table entry (with the receive
// offload's table in place) comes and goes without growing the table.
func TestHostReadNoAlloc(t *testing.T) {
	for _, rr := range []bool{false, true} {
		fs := newFakeStream()
		fs.discard = true
		h := NewHost(fs)
		if rr {
			h.CreateSparseRxEngine(true, true) // puts the offload's RR table in place
		}
		buf := make([]byte, blockdev.BlockSize)
		data := bytes.Repeat([]byte{0x5A}, blockdev.BlockSize)
		// One response per CID the cycles below use: the host numbers its
		// commands 1, 2, ... and each capsule's digest covers its CID.
		var resps [][]byte
		for cid := 1; cid <= 32; cid++ {
			resps = append(resps, Build(&Header{Type: TypeResp, CID: uint16(cid), Op: StatusOK, DataLen: len(data)}, data, false))
		}
		var fails, done int
		complete := func(err error) {
			done++
			if err != nil {
				fails++
			}
		}
		next := uint32(1)
		cycle := func() {
			h.ReadBlocks(0, 1, buf, complete)
			pdu := resps[h.nextCID-1]
			fs.onData(tcpip.Chunk{Seq: next, Data: pdu})
			next += uint32(len(pdu))
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Errorf("rr=%v: a read cycle allocates %v times", rr, n)
		}
		if done != 25 || fails != 0 || !bytes.Equal(buf, data) {
			t.Errorf("rr=%v: %d reads completed, %d failed, buffer intact %v", rr, done, fails, bytes.Equal(buf, data))
		}
	}
}

// TestRxContextSizeClass: the receive context (RR table, ops and engine)
// is one allocation per offloaded association, in the 704-byte size class
// together with the 8-byte header the Go runtime (1.22 on) adds to every
// object of more than 512 bytes that holds pointers.
func TestRxContextSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(rxContext{}) + 8; n > 704 {
		t.Errorf("rxContext is %d bytes with its malloc header: past the 704-byte size class, every offloaded association costs 64 bytes more", n)
	}
}
