package l5p

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cycles"
	"repro/internal/offload"
	"repro/internal/tcpip"
)

// SendRing is the transport's send buffer seen from a TxRetainer: the
// bytes of every message it holds stay there, readable by sequence number,
// for as long as it holds the message. *tcpip.Socket implements it.
type SendRing interface {
	// RetainFrom keeps acknowledged bytes at or above seq in the ring.
	RetainFrom(seq uint32)
	// ReleaseRetained drops that floor.
	ReleaseRetained()
	// ReadSent returns the ring's bytes [from, to): head, and tail when
	// the range wraps the ring's end; ok false if the ring lacks them.
	ReadSent(from, to uint32) (head, tail []byte, ok bool)
}

// TxRetainer keeps every transmitted message reachable until TCP has
// acknowledged all of it, and serves the driver's transmit-recovery upcalls
// from there (§4.2): the NIC must be able to DMA-read a message's bytes
// even after cumulative ACKs release a prefix of it from the TCP
// retransmission buffer. The bytes are not copied: the retainer keeps each
// message's position and holds the send ring's retention floor at the
// oldest one, so the message stays in the ring it was written to.
type TxRetainer struct {
	// Model and Ledger, set once by the owner, price and book the upcall.
	Model  *cycles.Model
	Ledger *cycles.Ledger
	// Ring is the send ring the messages are written to, set once by the
	// owner.
	Ring SendRing
	// Spares, if the owner sets it, lends the retainer its record index:
	// Grow takes one an earlier retainer handed back, and Close hands it
	// back.
	Spares *tcpip.Spares

	msgs []txMsg // in stream order, tiling it
	// scratch holds a replayed range that wraps the ring, stitched; behind
	// a pointer, allocated at the first such range, because a TxRetainer
	// lives inside every ktls.Conn, whose size class churn pays for.
	scratch *[]byte
}

type txMsg struct {
	start uint32 // wire sequence of the message's first byte
	len   uint32
	index uint64
}

func (m *txMsg) end() uint32 { return m.start + m.len }

var _ offload.TxSource = (*TxRetainer)(nil)

// Add retains message number index, n bytes the owner writes to the ring at
// wireStart right after, having dropped every message that ends at or below
// acked, the transport's cumulative acknowledgment; the ring keeps what the
// oldest message left needs.
func (r *TxRetainer) Add(wireStart uint32, index uint64, n int, acked uint32) {
	i := 0
	for i < len(r.msgs) && int32(r.msgs[i].end()-acked) <= 0 {
		i++
	}
	// Slide down instead of re-slicing, so the store stays on its array (a
	// few dozen entries).
	r.msgs = append(slices.Delete(r.msgs, 0, i), txMsg{start: wireStart, len: uint32(n), index: index})
	r.Ring.RetainFrom(r.msgs[0].start)
}

// Grow makes room for n more messages, so that the first ones a connection
// sends do not grow the store.
func (r *TxRetainer) Grow(n int) {
	if cap(r.msgs) == 0 && r.Spares != nil {
		r.msgs, _ = tcpip.LotOf[[]txMsg](r.Spares).Take()
	}
	r.msgs = slices.Grow(r.msgs, n)
}

// indexSparesMax bounds the record indexes a stack keeps for its next
// retainers; past that many transmit offloads closed and not yet replaced,
// the indexes are left to the collector.
const indexSparesMax = 64

// Close drops every message and releases the ring's retention floor: the
// owner's transmit offload is gone, so nothing replays them any more. The
// record index goes back to Spares, if the owner lent them.
func (r *TxRetainer) Close() {
	r.msgs = r.msgs[:0]
	if r.Spares != nil && cap(r.msgs) > 0 {
		tcpip.LotOf[[]txMsg](r.Spares).Put(r.msgs, indexSparesMax)
		r.msgs = nil
	}
	r.Ring.ReleaseRetained()
}

// find returns the retained message holding stream byte seq, or nil.
func (r *TxRetainer) find(seq uint32) *txMsg {
	i := sort.Search(len(r.msgs), func(i int) bool {
		return int32(r.msgs[i].end()-seq) > 0
	})
	if i == len(r.msgs) || int32(seq-r.msgs[i].start) < 0 {
		return nil
	}
	return &r.msgs[i]
}

// MsgStateAt implements offload.TxSource (the l5o_get_tx_msgstate upcall).
func (r *TxRetainer) MsgStateAt(seq uint32) (uint32, uint64, bool) {
	r.Ledger.Charge(cycles.HostL5P, cycles.Driver, r.Model.ResyncUpcallCost, 0)
	m := r.find(seq)
	if m == nil {
		return 0, 0, false
	}
	return m.start, m.index, true
}

// StreamBytes implements offload.TxSource: the DMA source is the send ring,
// which keeps the retained messages after the TCP window has let go of
// them. The range may span consecutive messages. The bytes are the ring's
// own, or the retainer's scratch when the range wraps the ring, and are
// valid until the next write, acknowledgment or StreamBytes: the engine
// only reads them.
func (r *TxRetainer) StreamBytes(from, to uint32) ([]byte, error) {
	if from == to {
		return nil, nil
	}
	if int32(to-from) > 0 && r.find(from) != nil && r.find(to-1) != nil {
		if head, tail, ok := r.Ring.ReadSent(from, to); ok {
			if len(tail) == 0 {
				return head, nil
			}
			if r.scratch == nil {
				r.scratch = new([]byte)
			}
			*r.scratch = append(append((*r.scratch)[:0], head...), tail...)
			return *r.scratch, nil
		}
	}
	return nil, fmt.Errorf("l5p: stream range [%d,%d) not retained", from, to)
}
