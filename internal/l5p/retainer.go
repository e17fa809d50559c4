package l5p

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cycles"
	"repro/internal/offload"
)

// TxRetainer keeps every transmitted message until TCP has acknowledged
// all of it, and serves the driver's transmit-recovery upcalls from that
// store (§4.2): the message bytes must stay reachable for the NIC to
// DMA-read even after cumulative ACKs release a prefix of the message from
// the TCP retransmission buffer.
type TxRetainer struct {
	// Model and Ledger, set once by the owner, price and book the upcall.
	Model  *cycles.Model
	Ledger *cycles.Ledger

	// Release, if set, is handed the buffer of every message Add drops: once
	// per message, only from Add, and only when the whole message is below
	// the acknowledgment Add was given, so nothing will ask for those bytes
	// again and the owner may overwrite them at once.
	Release func(data []byte)

	msgs []txMsg // in stream order
}

type txMsg struct {
	start uint32 // wire sequence of data[0]
	index uint64
	data  []byte // the whole wire message
}

var _ offload.TxSource = (*TxRetainer)(nil)

// Add retains message number index, whose bytes data (kept by reference)
// enter the stream at wireStart, after dropping every message that ends at
// or below acked, the transport's cumulative acknowledgment.
func (r *TxRetainer) Add(wireStart uint32, index uint64, data []byte, acked uint32) {
	i := 0
	for i < len(r.msgs) && int32(r.msgs[i].start+uint32(len(r.msgs[i].data))-acked) <= 0 {
		if r.Release != nil {
			r.Release(r.msgs[i].data)
		}
		i++
	}
	// Slide down instead of re-slicing, so the store stays on its array (a
	// few dozen entries) and keeps no reference to what it dropped.
	r.msgs = append(slices.Delete(r.msgs, 0, i), txMsg{start: wireStart, index: index, data: data})
}

// find returns the retained message holding stream byte seq, or nil.
func (r *TxRetainer) find(seq uint32) *txMsg {
	i := sort.Search(len(r.msgs), func(i int) bool {
		return int32(r.msgs[i].start+uint32(len(r.msgs[i].data))-seq) > 0
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

// StreamBytes implements offload.TxSource: the DMA source is the retained
// messages, which outlive the TCP window's view of the bytes. Ranges may
// span consecutive messages; the retained copies are stitched.
func (r *TxRetainer) StreamBytes(from, to uint32) ([]byte, error) {
	var out []byte
	for from != to {
		m := r.find(from)
		if m == nil || int32(to-from) < 0 {
			return nil, fmt.Errorf("l5p: stream range [%d,%d) not retained", from, to)
		}
		part := m.data[from-m.start:]
		part = part[:min(len(part), int(to-from))]
		out = append(out, part...)
		from += uint32(len(part))
	}
	return out, nil
}
