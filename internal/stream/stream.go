// Package stream abstracts the byte streams L5Ps and applications run
// over: either a raw TCP socket or a kTLS connection. Received data
// arrives as chunks annotated with wire sequence numbers and NIC offload
// verdict flags, which is what the L5P layers need for offload-aware
// processing.
package stream

import (
	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// Stream is the transport-neutral byte-stream interface.
type Stream interface {
	// Write queues stream bytes, returning how many were accepted; it
	// pays the user-to-kernel copy. WriteZC is the sendpage path for data
	// already in kernel buffers. Either way the stream holds its own copy
	// of what it accepted: the writer may reuse p on return.
	Write(p []byte) int
	WriteZC(p []byte) int
	// WriteSpace returns how many bytes Write would accept now.
	WriteSpace() int
	// WriteSeq returns the stream coordinate of the next written byte.
	WriteSeq() uint32
	// AckedSeq returns the coordinate below which bytes are acknowledged.
	AckedSeq() uint32
	// ReadSeq returns the coordinate of the next byte to be delivered.
	ReadSeq() uint32
	// SetOnData registers the receive callback. A chunk's bytes are valid
	// until fn returns; a consumer that keeps them copies them.
	SetOnData(fn func(tcpip.Chunk))
	// SetOnError registers the callback for a fatal error of the stream
	// itself (for TLS, a record that fails authentication or framing):
	// nothing is delivered after it. A plain socket has none.
	SetOnError(fn func(error))
	// SetOnDrain registers the write-space callback.
	SetOnDrain(fn func())
	// Flow returns the connection's local→remote flow.
	Flow() wire.FlowID
	// Model and Ledger expose the host's cost accounting.
	Model() *cycles.Model
	Ledger() *cycles.Ledger
	// Close shuts the stream down after queued data drains.
	Close()
}

// SocketTransport adapts a plain TCP socket.
type SocketTransport struct {
	sock *tcpip.Socket
}

// NewSocketTransport wraps an established socket. It takes over the
// socket's OnReadable and OnDrain callbacks.
func NewSocketTransport(s *tcpip.Socket) *SocketTransport {
	return &SocketTransport{sock: s}
}

var _ Stream = (*SocketTransport)(nil)

// Socket returns the underlying TCP socket.
func (t *SocketTransport) Socket() *tcpip.Socket { return t.sock }

// Write implements Stream.
func (t *SocketTransport) Write(p []byte) int { return t.sock.Write(p) }

// WriteZC implements Stream.
func (t *SocketTransport) WriteZC(p []byte) int { return t.sock.WriteZC(p) }

// WriteSpace implements Stream.
func (t *SocketTransport) WriteSpace() int { return t.sock.WriteSpace() }

// WriteSeq implements Stream.
func (t *SocketTransport) WriteSeq() uint32 { return t.sock.WriteSeq() }

// AckedSeq implements Stream.
func (t *SocketTransport) AckedSeq() uint32 { return t.sock.AckedSeq() }

// ReadSeq implements Stream.
func (t *SocketTransport) ReadSeq() uint32 { return t.sock.ReadSeq() }

// SetOnData implements Stream.
func (t *SocketTransport) SetOnData(fn func(tcpip.Chunk)) {
	t.sock.OnReadable = func(s *tcpip.Socket) {
		for {
			ch, ok := s.ReadChunk()
			if !ok {
				break
			}
			fn(ch)
		}
	}
}

// SetOnError implements Stream: TCP repairs what it can and has no fatal
// receive error to report.
func (t *SocketTransport) SetOnError(func(error)) {}

// SetOnDrain implements Stream.
func (t *SocketTransport) SetOnDrain(fn func()) {
	t.sock.OnDrain = func(*tcpip.Socket) { fn() }
}

// Flow implements Stream.
func (t *SocketTransport) Flow() wire.FlowID { return t.sock.Flow() }

// Model implements Stream.
func (t *SocketTransport) Model() *cycles.Model { return t.sock.StackModel() }

// Ledger implements Stream.
func (t *SocketTransport) Ledger() *cycles.Ledger { return t.sock.StackLedger() }

// Close implements Stream.
func (t *SocketTransport) Close() { t.sock.Close() }

// TLSTransport adapts a kTLS connection, giving NVMe-TLS (§5.3). The wire
// coordinates of delivered chunks are the TCP sequence numbers of the
// enclosing record bodies, matching the coordinates the stacked NIC engine
// sees.
type TLSTransport struct {
	conn *ktls.Conn
}

// NewTLSTransport wraps a kTLS connection. It takes over the connection's
// OnPlain, OnError and OnDrain callbacks.
func NewTLSTransport(c *ktls.Conn) *TLSTransport {
	return &TLSTransport{conn: c}
}

var _ Stream = (*TLSTransport)(nil)

// Write implements Stream.
func (t *TLSTransport) Write(p []byte) int { return t.conn.Write(p) }

// WriteZC implements Stream: the TLS connection's Sendfile/zero-copy
// configuration governs the data path's copies; record buffers themselves
// always reach the socket without another copy.
func (t *TLSTransport) WriteZC(p []byte) int { return t.conn.Write(p) }

// WriteSpace implements Stream.
func (t *TLSTransport) WriteSpace() int { return t.conn.WriteSpace() }

// WriteSeq implements Stream (TLS transports do not support the NVMe
// transmit digest offload; the coordinate is informational).
func (t *TLSTransport) WriteSeq() uint32 { return t.conn.Socket().WriteSeq() }

// AckedSeq implements Stream.
func (t *TLSTransport) AckedSeq() uint32 { return t.conn.Socket().AckedSeq() }

// ReadSeq implements Stream: the first NVMe byte arrives at the body of
// the next TLS record, one record header past the socket's read position.
func (t *TLSTransport) ReadSeq() uint32 {
	return t.conn.Socket().ReadSeq() + ktls.HeaderLen
}

// SetOnData implements Stream.
func (t *TLSTransport) SetOnData(fn func(tcpip.Chunk)) {
	t.conn.OnPlain = func(pc ktls.PlainChunk) {
		fn(tcpip.Chunk{Seq: pc.WireSeq, Data: pc.Data, Flags: pc.Flags})
	}
}

// SetOnError implements Stream.
func (t *TLSTransport) SetOnError(fn func(error)) { t.conn.OnError = fn }

// SetOnDrain implements Stream.
func (t *TLSTransport) SetOnDrain(fn func()) {
	t.conn.OnDrain = func(*ktls.Conn) { fn() }
}

// Flow implements Stream.
func (t *TLSTransport) Flow() wire.FlowID { return t.conn.Socket().Flow() }

// Model implements Stream.
func (t *TLSTransport) Model() *cycles.Model { return t.conn.Socket().StackModel() }

// Ledger implements Stream.
func (t *TLSTransport) Ledger() *cycles.Ledger { return t.conn.Socket().StackLedger() }

// Close implements Stream.
func (t *TLSTransport) Close() { t.conn.Close() }
