package l5p

import (
	"repro/internal/cycles"
	"repro/internal/offload"
)

// ResyncMailbox is the software end of receive resynchronization (§4.3).
// The NIC, having speculatively recognised a message header while
// searching, asks software to confirm it (Request, the l5o_resync_rx_req
// upcall); software answers once the messages it assembles reach that
// stream position (Answer, the l5o_resync_rx_resp call). Only the latest
// request is kept: the engine discards stale responses itself.
type ResyncMailbox struct {
	// Model and Ledger, set once by the owner, price and book the upcalls.
	Model  *cycles.Model
	Ledger *cycles.Ledger

	seq     uint32
	pending bool
}

// Request records the engine's guess that a message starts at seq.
func (m *ResyncMailbox) Request(seq uint32) {
	m.seq, m.pending = seq, true
	m.Ledger.Charge(cycles.HostDriver, cycles.Driver, m.Model.ResyncUpcallCost, 0)
}

// Answer is called for every assembled message, in order, with its first
// wire sequence, its length and its index. If a request is pending at or
// before this message's end it is settled — confirmed when the guess is
// exactly the message's start, refuted otherwise — and Answer reports true.
// A guess further ahead keeps waiting, as does any request while no engine
// is attached: there is nobody to tell.
func (m *ResyncMailbox) Answer(e *offload.RxEngine, msgStart uint32, total int, msgIndex uint64) bool {
	if !m.pending || e == nil || int32(m.seq-(msgStart+uint32(total))) >= 0 {
		return false
	}
	// Settled before the call: the engine may ask again from inside it.
	seq := m.seq
	m.pending = false
	m.Ledger.Charge(cycles.HostL5P, cycles.Driver, m.Model.ResyncUpcallCost, 0)
	e.ResyncResponse(seq, seq == msgStart, msgIndex)
	return true
}

// Reset forgets a pending request. Owners call it when the engine is
// detached, so a request the old engine left behind is never answered to
// a later one.
func (m *ResyncMailbox) Reset() { m.pending = false }
