// Package l5p is the host-software half of the paper's Listing 1, written
// once: what every layer-5 protocol's software does around an offload
// engine, whatever its message format. The NIC half is internal/offload;
// the protocols (ktls, nvmetcp) supply a header length, a ParseHeader
// and their per-message work, and embed these by value:
//
//   - Device: l5o_create / l5o_destroy, the driver calls that install and
//     remove a flow's engines.
//   - Assembler: the in-order chunk stream cut into complete messages, each
//     chunk keeping its wire sequence and the NIC's verdict flags, and the
//     bytes of a message still waiting for its rest copied once, out of the
//     borrowed receive buffers; Clip, AppendRange and Verdict read a
//     message's byte ranges and flags.
//   - ResyncMailbox: l5o_resync_rx_req in, l5o_resync_rx_resp out (§4.3).
//   - TxRetainer: l5o_get_tx_msgstate and the host memory the driver
//     DMA-reads during transmit context recovery (§4.2), which is the
//     transport's send ring, read back by sequence number.
//   - FreeList: nvmetcp's capsule buffers while they wait for send space.
package l5p

import (
	"repro/internal/offload"
	"repro/internal/wire"
)

// Device is the slice of the NIC driver interface an L5P needs to install
// and remove offload contexts (Listing 1's l5o_create/l5o_destroy).
// Once DetachTx or DetachRx returns, the device holds no pointer to the
// engine, so its owner may reuse it. *nic.NIC implements it.
type Device interface {
	AttachTx(flow wire.FlowID, e *offload.TxEngine)
	AttachRx(flow wire.FlowID, e *offload.RxEngine)
	DetachTx(flow wire.FlowID)
	DetachRx(flow wire.FlowID)
}
