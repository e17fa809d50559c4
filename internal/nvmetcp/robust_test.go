package nvmetcp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/meta"
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
	seq     uint32
	shortBy int
}

func newFakeStream() *fakeStream { return &fakeStream{model: cycles.DefaultModel(), seq: 1} }

func (f *fakeStream) Write(p []byte) int { return f.WriteZC(p) }
func (f *fakeStream) WriteZC(p []byte) int {
	p = p[:len(p)-f.shortBy]
	f.written = append(f.written, p)
	f.seq += uint32(len(p))
	return len(p)
}
func (f *fakeStream) WriteSpace() int                { return 1 << 30 }
func (f *fakeStream) WriteSeq() uint32               { return f.seq }
func (f *fakeStream) AckedSeq() uint32               { return 1 }
func (f *fakeStream) ReadSeq() uint32                { return 1 }
func (f *fakeStream) SetOnData(fn func(tcpip.Chunk)) { f.onData = fn }
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
		cmd := Build(&Header{Type: TypeCmd, CID: 9, Op: OpWrite, DataLen: 16}, make([]byte, 16), true)
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
