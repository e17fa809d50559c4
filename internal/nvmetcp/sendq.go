package nvmetcp

import (
	"fmt"
	"slices"

	"repro/internal/cycles"
	"repro/internal/l5p"
	"repro/internal/offload"
	"repro/internal/stream"
)

// sendQueue is the capsule transmit path Host and Controller share.
// Capsules are built and charged here, wait for transport space and enter
// the stream whole. A capsule's buffer comes back for a later capsule as
// soon as the transport has copied it, so a queue at steady state
// allocates nothing per capsule. With the transmit data-digest offload
// installed the retainer also keeps each capsule's place in the stream, and
// the socket's send ring keeps its bytes, until TCP acknowledges all of it,
// for the driver's recovery replay (§4.2).
type sendQueue struct {
	tr     stream.Stream
	model  *cycles.Model
	ledger *cycles.Ledger
	fail   func(error) // the owner's teardown
	q      [][]byte
	free   l5p.FreeList // capsule buffers nothing reads any more

	offloaded bool // the NIC fills data digests: capsules carry a dummy
	retain    l5p.TxRetainer
	retained  uint64 // capsules sent since the offload was installed

	// broken: part of a capsule entered the stream and the rest did not,
	// so nothing written after it could be framed by the peer.
	broken bool
}

func (s *sendQueue) init(tr stream.Stream, fail func(error)) {
	*s = sendQueue{tr: tr, model: tr.Model(), ledger: tr.Ledger(), fail: fail,
		retain: l5p.TxRetainer{Model: tr.Model(), Ledger: tr.Ledger()}}
	tr.SetOnDrain(s.pump)
}

// enableTxOffload installs the transmit data-digest offload (§5.1) on the
// owner's NIC. It works on TCP's stream, and the socket's send ring holds
// the capsules it may replay, so over any other transport it does nothing.
func (s *sendQueue) enableTxOffload(dev l5p.Device) {
	st, ok := s.tr.(*stream.SocketTransport)
	if !ok {
		return
	}
	s.offloaded = true
	s.retain.Ring = st.Socket()
	ctx := &txContext{ops: TxOps{model: s.model, ledger: s.ledger}}
	ctx.engine.Init(&ctx.ops, &s.retain, s.tr.WriteSeq())
	dev.AttachTx(s.tr.Flow(), &ctx.engine)
}

// txContext is the transmit offload context, one allocation: the NIC-side
// ops and the engine (§4.1).
type txContext struct {
	ops    TxOps
	engine offload.TxEngine
}

// send queues a capsule carrying a copy of data.
func (s *sendQueue) send(hdr *Header, data []byte) {
	pdu := s.free.Get(hdr.TotalLen())
	copy(pdu[HeaderLen:], data)
	s.post(hdr, pdu)
}

// post finishes the capsule in pdu — hdr.TotalLen() bytes from s.free,
// stale but for the data its caller put at HeaderLen — charges what
// software does for it (the data digest unless the NIC fills it, §5.1;
// framing; the header digest) and queues it.
func (s *sendQueue) post(hdr *Header, pdu []byte) {
	if s.broken {
		return
	}
	finish(pdu, hdr, s.offloaded)
	if !s.offloaded && hdr.DataLen > 0 {
		s.ledger.Charge(cycles.HostL5P, cycles.CRC, s.model.CRCCycles(hdr.DataLen), hdr.DataLen)
	}
	s.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, s.model.L5PPerMessage, 0)
	s.ledger.Charge(cycles.HostL5P, cycles.CRC, s.model.CRCCycles(BaseHeaderLen), BaseHeaderLen)
	s.q = append(s.q, pdu)
	s.pump()
}

func (s *sendQueue) pump() {
	for len(s.q) > 0 {
		pdu := s.q[0]
		if s.tr.WriteSpace() < len(pdu) {
			return
		}
		if s.offloaded {
			s.retain.Add(s.tr.WriteSeq(), s.retained, len(pdu), s.tr.AckedSeq())
			s.retained++
		}
		if n := s.tr.WriteZC(pdu); n != len(pdu) {
			s.broken, s.q = true, nil
			s.fail(fmt.Errorf("nvmetcp: short write (%d of %d bytes) despite space check", n, len(pdu)))
			return
		}
		s.free.Put(pdu) // the transport has its own copy
		// Slide down rather than re-slice: the queue is a few entries and
		// stays on its array.
		s.q = slices.Delete(s.q, 0, 1)
	}
}
