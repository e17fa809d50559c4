package ktls

import (
	"crypto/cipher"
	"fmt"
	"sort"

	"repro/internal/cycles"
	"repro/internal/gcm"
	"repro/internal/meta"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Device is the slice of the NIC driver interface kTLS needs to install
// offload contexts (Listing 1's l5o_create/l5o_destroy, narrowed to what
// this L5P uses). *nic.NIC implements it.
type Device interface {
	AttachTx(flow wire.FlowID, e *offload.TxEngine)
	AttachRx(flow wire.FlowID, e *offload.RxEngine)
	DetachTx(flow wire.FlowID)
	DetachRx(flow wire.FlowID)
}

// Config carries the session secrets and framing parameters. In the real
// system these come out of the TLS handshake (which the paper leaves in
// userspace OpenSSL); here both ends are configured with the same secrets.
type Config struct {
	// Key is the AES-128/256 session key (both directions share it here;
	// directions are distinguished by IV).
	Key []byte
	// TxIV and RxIV are the per-direction session IVs. A client's TxIV is
	// the server's RxIV and vice versa.
	TxIV, RxIV [gcm.NonceSize]byte
	// RecordSize bounds plaintext bytes per record (default MaxPlaintext).
	RecordSize int
	// Sendfile marks a page-cache data source (§5.2): the software path
	// encrypts straight out of the cache with no user-copy, the offload
	// path copies into private buffers unless zero-copy is enabled. When
	// false (ordinary user writes), both paths pay the user-to-kernel
	// copy that the kernel's send path performs.
	Sendfile bool
	// RxFallback overrides the receive engine's degradation policy. Nil
	// installs offload.DefaultFallbackPolicy (fall back to software
	// permanently on the first authentication failure).
	RxFallback *offload.FallbackPolicy
}

// PlainChunk is a run of received plaintext bytes delivered to the layer
// above, annotated with the wire position of its first byte (the coordinate
// stacked offloads use for resynchronization, §5.3) and the NIC's verdict
// flags inherited from the enclosing packets.
type PlainChunk struct {
	Data    []byte
	WireSeq uint32
	Flags   meta.RxFlags
}

// Stats counts record-level events, including the offload classification
// that Figures 17b and 18b report.
type Stats struct {
	RecordsTx        uint64
	RecordsRx        uint64
	RxFullyOffloaded uint64
	RxPartial        uint64
	RxUnoffloaded    uint64
	SwEncryptBytes   uint64
	SwDecryptBytes   uint64
	ReencryptBytes   uint64 // partial-record re-encryption (§5.2)
	ResyncResponses  uint64
	AuthFailures     uint64 // records rejected by the software tag check
}

// Conn is a kernel-TLS-style record layer bound to one TCP socket.
type Conn struct {
	sock   *tcpip.Socket
	cfg    Config
	model  *cycles.Model
	ledger *cycles.Ledger

	tr       *telemetry.Tracer // inherited from the socket's stack
	traceTid string

	// Whole-record software crypto uses the standard library AEAD (host
	// CPUs have AES-NI and carryless multiply); the incremental rxCipher
	// Stream serves only the partial-record mixed pass of §5.2, which must
	// advance over arbitrary byte ranges. Both produce identical bytes.
	txAEAD   cipher.AEAD
	rxAEAD   cipher.AEAD
	rxCipher *gcm.Cipher
	rxStream gcm.Stream // the mixed pass's stream, initialised in place per record
	txSeq    uint64     // next record index to transmit
	rxSeq    uint64     // next record index expected from the wire

	// Per-record scratch buffers, reused across records: both are
	// consumed within the record's processing (WriteZC copies the
	// assembled record into the socket; rxRec is only the AEAD's
	// ciphertext input). Decrypted plaintext is NOT scratch — OnPlain
	// consumers retain it (the NVMe PDU assembler buffers chunks across
	// callbacks) — and neither are offload TX records, which are kept
	// for recovery replay.
	txScratch []byte // software-encrypt record assembly
	rxRec     []byte // flattened wire record

	// Transmit offload state.
	txOffload bool
	zeroCopy  bool
	dev       Device
	txEngine  *offload.TxEngine
	txRecords []txRecord

	// Receive offload state.
	rxOffload bool
	rxEngine  *offload.RxEngine
	rxOps     *RxOps
	innerRx   *offload.RxEngine // stacked engine (NVMe over TLS)

	pendingResync    uint32
	hasPendingResync bool

	// Record assembly: inbuf[inHead:] are the buffered chunks, inbufLen
	// their bytes. rec is take's scratch result, reused for every record.
	inbuf    []tcpip.Chunk
	inHead   int
	inbufLen int
	rec      []tcpip.Chunk

	// dead marks a connection killed by a fatal record-layer error: TLS
	// cannot resynchronize past a bad record, so nothing after it may be
	// delivered (a skipped record would be a silent gap in the stream).
	dead bool

	// OnPlain receives decrypted application data in order. Required
	// before any data arrives.
	OnPlain func(PlainChunk)
	// OnDrain fires when socket send-buffer space frees up after a short
	// Write.
	OnDrain func(*Conn)
	// OnError receives fatal record-layer errors (authentication failure,
	// malformed framing).
	OnError func(error)
	// OnClose fires when the peer closes and all data was delivered.
	OnClose func(*Conn)

	// Stats is exported for experiments; treat as read-only.
	Stats Stats
}

// txRecord retains one transmitted record until TCP acknowledges all of it:
// the L5P must keep the message bytes reachable so the driver can DMA-read
// them during context recovery even after cumulative ACKs release a prefix
// of the record from the TCP retransmission buffer (§4.2).
type txRecord struct {
	wireStart uint32
	total     int
	index     uint64
	data      []byte // full wire record: header, plaintext body, dummy ICV
}

// NewConn wraps an established socket with the TLS record layer. It takes
// over the socket's OnReadable and OnDrain callbacks.
func NewConn(sock *tcpip.Socket, cfg Config) (*Conn, error) {
	if cfg.RecordSize <= 0 || cfg.RecordSize > MaxPlaintext {
		cfg.RecordSize = MaxPlaintext
	}
	aead, err := gcm.AEADCached(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("ktls: %w", err)
	}
	rxC, err := gcm.NewCached(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("ktls: %w", err)
	}
	st := sock // keep the original socket handle
	c := &Conn{
		sock:     st,
		cfg:      cfg,
		model:    stackModel(sock),
		ledger:   stackLedger(sock),
		txAEAD:   aead,
		rxAEAD:   aead,
		rxCipher: rxC,
		tr:       sock.StackTracer(),
		traceTid: sock.StackTraceTid() + ".tls",
	}
	sock.OnReadable = c.onReadable
	sock.OnDrain = func(*tcpip.Socket) {
		if c.OnDrain != nil {
			c.OnDrain(c)
		}
	}
	return c, nil
}

func stackModel(s *tcpip.Socket) *cycles.Model   { return s.StackModel() }
func stackLedger(s *tcpip.Socket) *cycles.Ledger { return s.StackLedger() }

// Socket returns the underlying TCP socket.
func (c *Conn) Socket() *tcpip.Socket { return c.sock }

// EnableTxOffload installs a transmit crypto context on the NIC starting at
// the current write position (l5o_create, §4.1). With zeroCopy, sendfile
// buffers are handed to the NIC without the private-copy the non-offloaded
// path needs (§5.2).
func (c *Conn) EnableTxOffload(dev Device, zeroCopy bool) error {
	if c.txOffload {
		return fmt.Errorf("ktls: tx offload already enabled")
	}
	hw, err := NewHW(c.cfg.Key, c.cfg.TxIV, c.model, c.ledger)
	if err != nil {
		return err
	}
	c.dev = dev
	c.txOffload = true
	c.zeroCopy = zeroCopy
	c.txEngine = offload.NewTxEngine(NewTxOps(hw), (*txSource)(c), c.sock.WriteSeq())
	dev.AttachTx(c.sock.Flow(), c.txEngine)
	return nil
}

// EnableRxOffload installs a receive crypto context on the NIC starting at
// the current read position.
func (c *Conn) EnableRxOffload(dev Device) error {
	if c.rxOffload {
		return fmt.Errorf("ktls: rx offload already enabled")
	}
	hw, err := NewHW(c.cfg.Key, c.cfg.RxIV, c.model, c.ledger)
	if err != nil {
		return err
	}
	c.InstallRxEngine(dev, NewRxOps(hw, c.emitToInner), c.resyncRequested)
	return nil
}

// InstallRxEngine attaches a receive engine built from custom ops and an
// optional resync-request path. Experiments use it to ablate pieces of the
// recovery machinery; EnableRxOffload is the normal entry point.
func (c *Conn) InstallRxEngine(dev Device, ops *RxOps, resync func(uint32)) *offload.RxEngine {
	c.dev = dev
	c.rxOffload = true
	c.rxOps = ops
	c.rxEngine = offload.NewRxEngine(ops, c.sock.ReadSeq(), resync)
	if c.cfg.RxFallback != nil {
		c.rxEngine.SetFallbackPolicy(*c.cfg.RxFallback)
	} else {
		c.rxEngine.SetFallbackPolicy(offload.DefaultFallbackPolicy())
	}
	dev.AttachRx(c.sock.Flow().Reverse(), c.rxEngine)
	return c.rxEngine
}

// DisableTxOffload detaches the transmit engine from the NIC
// (l5o_destroy). Only safe once every offloaded byte has been ACKed: the
// NIC encrypts at transmit time, so a retransmission after detach would
// leak plaintext. Callers detach after the socket drains — connection
// teardown under churn is the expected site.
func (c *Conn) DisableTxOffload() {
	if !c.txOffload {
		return
	}
	c.dev.DetachTx(c.sock.Flow())
	c.txOffload = false
	c.txEngine = nil
}

// DisableRxOffload detaches the receive engine (l5o_destroy). Records
// already decrypted stay decrypted; anything arriving afterwards takes the
// software path, so it is safe at any point — teardown under churn is the
// expected site.
func (c *Conn) DisableRxOffload() {
	if !c.rxOffload {
		return
	}
	c.dev.DetachRx(c.sock.Flow().Reverse())
	c.rxOffload = false
	c.rxEngine = nil
	c.rxOps = nil
}

// ResyncRequestFunc exposes the connection's l5o_resync_rx_req upcall
// target for custom engine installation.
func (c *Conn) ResyncRequestFunc() func(uint32) { return c.resyncRequested }

// SetInnerRxEngine stacks an inner offload engine (e.g. NVMe-TCP) that
// consumes the NIC-decrypted plaintext stream (§5.3).
func (c *Conn) SetInnerRxEngine(e *offload.RxEngine) { c.innerRx = e }

// RxEngine exposes the receive engine for tests and experiments.
func (c *Conn) RxEngine() *offload.RxEngine { return c.rxEngine }

// TxEngine exposes the transmit engine for tests and experiments.
func (c *Conn) TxEngine() *offload.TxEngine { return c.txEngine }

func (c *Conn) emitToInner(seq uint32, plain []byte, contiguous bool) meta.RxFlags {
	if c.innerRx == nil {
		return 0
	}
	return c.innerRx.Process(seq, plain, contiguous)
}

// resyncRequested is the driver upcall path for l5o_resync_rx_req (§4.3):
// the NIC speculatively identified a record header and asks software to
// confirm. Only the latest request is kept; the engine discards stale
// responses itself.
func (c *Conn) resyncRequested(seq uint32) {
	c.pendingResync = seq
	c.hasPendingResync = true
	c.ledger.Charge(cycles.HostDriver, cycles.Driver, c.model.ResyncUpcallCost, 0)
}

// Close closes the underlying socket after all queued records drain.
func (c *Conn) Close() { c.sock.Close() }

// WriteSpace estimates how many plaintext bytes Write would accept now.
func (c *Conn) WriteSpace() int {
	per := c.cfg.RecordSize + HeaderLen + TagLen
	records := c.sock.WriteSpace() / per
	return records * c.cfg.RecordSize
}

// Write frames p into TLS records and queues them on the socket, returning
// how many plaintext bytes were consumed (whole records only; use OnDrain
// to continue after backpressure). With transmit offload the record bodies
// are written in plaintext with a dummy ICV for the NIC to fill; otherwise
// they are encrypted in software.
func (c *Conn) Write(p []byte) int {
	if c.dead {
		return 0
	}
	c.ledger.Charge(cycles.HostL5P, cycles.Syscall, c.model.SyscallCost, 0)
	consumed := 0
	for len(p) > 0 {
		n := len(p)
		if n > c.cfg.RecordSize {
			n = c.cfg.RecordSize
		}
		total := HeaderLen + n + TagLen
		if c.sock.WriteSpace() < total {
			break
		}
		var rec []byte
		if c.txOffload {
			rec = make([]byte, total) // retained in txRecords below
		} else {
			if cap(c.txScratch) < total {
				c.txScratch = make([]byte, total)
			}
			rec = c.txScratch[:total]
		}
		PutHeader(rec, n)
		c.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, c.model.L5PPerMessage, 0)
		if c.txOffload {
			// Skip the crypto: plaintext body, dummy ICV (§3.1). The copy
			// into the record buffer is the cost zero-copy sendfile avoids.
			copy(rec[HeaderLen:], p[:n])
			if !c.zeroCopy {
				c.ledger.Charge(cycles.HostL5P, cycles.Copy,
					c.model.CopyCycles(n, 0), n)
			}
			c.pruneTxRecords()
			c.txRecords = append(c.txRecords, txRecord{
				wireStart: c.sock.WriteSeq(),
				total:     total,
				index:     c.txSeq,
				data:      rec,
			})
		} else {
			nonce := RecordNonce(c.cfg.TxIV, c.txSeq)
			c.txAEAD.Seal(rec[HeaderLen:HeaderLen], nonce[:], p[:n], rec[:HeaderLen])
			c.ledger.Charge(cycles.HostL5P, cycles.Encrypt, c.model.GCMCycles(n), n)
			if !c.cfg.Sendfile {
				// copy_from_user into the skb (the offload path pays the
				// equivalent copy into the record buffer above).
				c.ledger.Charge(cycles.HostL5P, cycles.Copy, c.model.CopyCycles(n, 0), n)
			}
			c.Stats.SwEncryptBytes += uint64(n)
		}
		if w := c.sock.WriteZC(rec); w != total {
			panic("ktls: short socket write despite space check")
		}
		c.txSeq++
		c.Stats.RecordsTx++
		p = p[n:]
		consumed += n
	}
	return consumed
}

// pruneTxRecords drops acknowledged records from the seq→record map the
// driver queries during transmit recovery (§4.2).
func (c *Conn) pruneTxRecords() {
	acked := c.sock.AckedSeq()
	i := 0
	for i < len(c.txRecords) {
		r := c.txRecords[i]
		if int32(r.wireStart+uint32(r.total)-acked) > 0 {
			break
		}
		i++
	}
	c.txRecords = c.txRecords[i:]
}

// txSource implements offload.TxSource over the Conn's record map and the
// socket's retained stream (the l5o_get_tx_msgstate upcall plus host-memory
// DMA of §4.2).
type txSource Conn

// MsgStateAt implements offload.TxSource.
func (t *txSource) MsgStateAt(seq uint32) (uint32, uint64, bool) {
	c := (*Conn)(t)
	c.ledger.Charge(cycles.HostL5P, cycles.Driver, c.model.ResyncUpcallCost, 0)
	recs := c.txRecords
	i := sort.Search(len(recs), func(i int) bool {
		return int32(recs[i].wireStart+uint32(recs[i].total)-seq) > 0
	})
	if i == len(recs) || int32(seq-recs[i].wireStart) < 0 {
		return 0, 0, false
	}
	return recs[i].wireStart, recs[i].index, true
}

// StreamBytes implements offload.TxSource: the DMA source is the records
// retained by the L5P, which outlive the TCP window's view of the bytes
// (cumulative ACKs can release a record prefix mid-record). Ranges may
// span consecutive records; the retained copies are stitched.
func (t *txSource) StreamBytes(from, to uint32) ([]byte, error) {
	c := (*Conn)(t)
	if from == to {
		return nil, nil
	}
	var out []byte
	cur := from
	for i := range c.txRecords {
		r := &c.txRecords[i]
		lo := int32(cur - r.wireStart)
		if lo < 0 || int(lo) >= r.total {
			continue
		}
		hi := int32(to - r.wireStart)
		if int(hi) > r.total {
			hi = int32(r.total)
		}
		out = append(out, r.data[lo:hi]...)
		cur = r.wireStart + uint32(hi)
		if cur == to {
			return out, nil
		}
	}
	return nil, fmt.Errorf("ktls: stream range [%d,%d) not retained", from, to)
}

// onReadable drains the socket and processes complete records.
func (c *Conn) onReadable(s *tcpip.Socket) {
	if c.dead {
		return
	}
	c.compactInbuf()
	for {
		ch, ok := s.ReadChunk()
		if !ok {
			break
		}
		c.inbuf = append(c.inbuf, ch)
		c.inbufLen += len(ch.Data)
	}
	c.processRecords()
	if s.EOF() && c.OnClose != nil && c.inbufLen == 0 {
		c.OnClose(c)
	}
}

func (c *Conn) fail(err error) {
	c.dead = true
	if c.OnError != nil {
		c.OnError(err)
	} else {
		panic(err)
	}
}

func (c *Conn) processRecords() {
	for !c.dead && c.inbufLen >= HeaderLen {
		var hdr [HeaderLen]byte
		c.peek(hdr[:])
		layout, ok := ParseHeader(hdr[:])
		if !ok {
			c.fail(fmt.Errorf("ktls: malformed record header % x", hdr))
			return
		}
		if c.inbufLen < layout.Total {
			return
		}
		rec := c.take(layout.Total)
		c.handleRecord(rec, layout)
	}
}

// compactInbuf slides what the last pass left (at most a partial record)
// back to the front of the backing array, so the queue never marches off
// its end and reallocates.
func (c *Conn) compactInbuf() {
	c.inbuf = c.inbuf[:copy(c.inbuf, c.inbuf[c.inHead:])]
	c.inHead = 0
}

// peek copies the next len(dst) buffered bytes without consuming them.
func (c *Conn) peek(dst []byte) {
	n := 0
	for _, ch := range c.inbuf[c.inHead:] {
		n += copy(dst[n:], ch.Data)
		if n == len(dst) {
			return
		}
	}
}

// take consumes exactly n buffered bytes, preserving chunk boundaries and
// flags (splitting the final chunk if needed). The result lives in a
// per-Conn scratch and is valid until the next take; handleRecord does not
// retain it.
func (c *Conn) take(n int) []tcpip.Chunk {
	out := c.rec[:0]
	for n > 0 {
		ch := c.inbuf[c.inHead]
		if len(ch.Data) <= n {
			out = append(out, ch)
			n -= len(ch.Data)
			c.inbufLen -= len(ch.Data)
			c.inHead++
			continue
		}
		out = append(out, tcpip.Chunk{Seq: ch.Seq, Data: ch.Data[:n], Flags: ch.Flags})
		c.inbuf[c.inHead] = tcpip.Chunk{Seq: ch.Seq + uint32(n), Data: ch.Data[n:], Flags: ch.Flags}
		c.inbufLen -= n
		n = 0
	}
	c.rec = out
	return out
}

const fullRxFlags = meta.TLSOffloaded | meta.TLSDecrypted | meta.TLSAuthOK

// testRecordTap, when non-nil, observes every record's raw chunks before
// classification (test-only instrumentation).
var testRecordTap func(chunks []tcpip.Chunk, recStart uint32, rxSeq int)

// handleRecord classifies one complete record by its chunks' offload
// verdicts and takes the corresponding path: skip crypto, full software
// fallback, or the partial-record mixed pass of §5.2.
func (c *Conn) handleRecord(chunks []tcpip.Chunk, layout offload.MsgLayout) {
	recStart := chunks[0].Seq
	bodyLen := layout.Total - HeaderLen - TagLen
	// One read syscall drains roughly one record's worth of stream.
	c.ledger.Charge(cycles.HostL5P, cycles.Syscall, c.model.SyscallCost, 0)
	if testRecordTap != nil {
		testRecordTap(chunks, recStart, int(c.rxSeq))
	}
	c.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, c.model.L5PPerMessage, 0)

	// Answer an outstanding NIC resync request once the stream position
	// reaches it (l5o_resync_rx_resp, §4.3).
	if c.hasPendingResync && int32(c.pendingResync-(recStart+uint32(layout.Total))) < 0 {
		ok := c.pendingResync == recStart
		c.hasPendingResync = false
		c.Stats.ResyncResponses++
		c.ledger.Charge(cycles.HostL5P, cycles.Driver, c.model.ResyncUpcallCost, 0)
		if c.rxEngine != nil {
			c.rxEngine.ResyncResponse(c.pendingResync, ok, c.rxSeq)
		}
	}

	allFlags := ^meta.RxFlags(0)
	anyDecrypted := false
	for _, ch := range chunks {
		allFlags &= ch.Flags
		if ch.Flags.Has(meta.TLSDecrypted) {
			anyDecrypted = true
		}
	}

	switch {
	case allFlags.Has(fullRxFlags):
		// Fully offloaded: body is already plaintext and authenticated.
		c.Stats.RxFullyOffloaded++
		c.tr.Instant1("l5p", "tls.rec.offloaded", c.traceTid, "rec", int64(c.rxSeq))
		c.emitBody(chunks, bodyLen, nil)
	case !anyDecrypted:
		// Fully un-offloaded: classic software decrypt.
		c.Stats.RxUnoffloaded++
		c.tr.Instant1("l5p", "tls.rec.unoffloaded", c.traceTid, "rec", int64(c.rxSeq))
		c.softwareDecrypt(chunks, layout, bodyLen, recStart)
	default:
		// Partially offloaded: authenticate by re-encrypting the ranges
		// the NIC decrypted while decrypting the rest — costlier than full
		// decryption (§5.2).
		c.Stats.RxPartial++
		c.tr.Instant1("l5p", "tls.rec.partial", c.traceTid, "rec", int64(c.rxSeq))
		c.partialFallback(chunks, layout, bodyLen, recStart)
	}
	c.rxSeq++
	c.Stats.RecordsRx++
}

// emitBody delivers the record's body region to OnPlain, preserving chunk
// boundaries and flags. If plain is non-nil it holds the decrypted body and
// is used in place of the wire bytes.
func (c *Conn) emitBody(chunks []tcpip.Chunk, bodyLen int, plain []byte) {
	if c.OnPlain == nil {
		return
	}
	off := 0 // offset within the record
	for _, ch := range chunks {
		start := off
		end := off + len(ch.Data)
		off = end
		lo := max(start, HeaderLen)
		hi := min(end, HeaderLen+bodyLen)
		if lo >= hi {
			continue
		}
		var data []byte
		if plain != nil {
			data = plain[lo-HeaderLen : hi-HeaderLen]
		} else {
			data = ch.Data[lo-start : hi-start]
		}
		c.OnPlain(PlainChunk{
			Data:    data,
			WireSeq: ch.Seq + uint32(lo-start),
			Flags:   ch.Flags,
		})
	}
}

func (c *Conn) softwareDecrypt(chunks []tcpip.Chunk, layout offload.MsgLayout, bodyLen int, recStart uint32) {
	rec := flattenInto(&c.rxRec, chunks, layout.Total)
	nonce := RecordNonce(c.cfg.RxIV, c.rxSeq)
	c.ledger.Charge(cycles.HostL5P, cycles.Decrypt, c.model.GCMCycles(bodyLen), bodyLen)
	c.Stats.SwDecryptBytes += uint64(bodyLen)
	plain, err := c.rxAEAD.Open(make([]byte, 0, bodyLen), nonce[:], rec[HeaderLen:], rec[:HeaderLen])
	if err != nil {
		c.authFailed(fmt.Errorf("ktls: record %d authentication failed", c.rxSeq))
		return
	}
	c.emitBody(chunks, bodyLen, plain)
}

// authFailed rejects a corrupt record: the plaintext is never delivered,
// the receive engine (if any) degrades per its fallback policy, and the
// connection dies — TLS cannot resynchronize past a bad record.
func (c *Conn) authFailed(err error) {
	c.Stats.AuthFailures++
	c.tr.Instant1("l5p", "tls.authfail", c.traceTid, "rec", int64(c.rxSeq))
	if c.rxEngine != nil {
		c.rxEngine.NoteAuthFailure()
	}
	c.fail(err)
}

func (c *Conn) partialFallback(chunks []tcpip.Chunk, layout offload.MsgLayout, bodyLen int, recStart uint32) {
	rec := flattenInto(&c.rxRec, chunks, layout.Total)
	nonce := RecordNonce(c.cfg.RxIV, c.rxSeq)
	s := &c.rxStream
	c.rxCipher.InitStream(s, gcm.Open, nonce[:], rec[:HeaderLen])
	plain := make([]byte, bodyLen)
	scratch := make([]byte, bodyLen)

	off := 0
	reenc := 0
	for _, ch := range chunks {
		start := off
		end := off + len(ch.Data)
		off = end
		lo := max(start, HeaderLen)
		hi := min(end, HeaderLen+bodyLen)
		if lo >= hi {
			continue
		}
		seg := rec[lo:hi]
		p := plain[lo-HeaderLen : hi-HeaderLen]
		if ch.Flags.Has(meta.TLSDecrypted) {
			// Already plaintext: re-encrypt into scratch to feed the GHASH.
			s.Transform(scratch[lo-HeaderLen:hi-HeaderLen], seg, false)
			copy(p, seg)
			reenc += len(seg)
		} else {
			s.Transform(p, seg, true)
		}
	}
	c.ledger.Charge(cycles.HostL5P, cycles.Decrypt, c.model.GCMCycles(bodyLen), bodyLen)
	c.ledger.Charge(cycles.HostL5P, cycles.Encrypt, c.model.GCMCycles(reenc), reenc)
	c.Stats.SwDecryptBytes += uint64(bodyLen)
	c.Stats.ReencryptBytes += uint64(reenc)
	if !s.Verify(rec[HeaderLen+bodyLen:]) {
		c.authFailed(fmt.Errorf("ktls: partial record %d authentication failed", c.rxSeq))
		return
	}
	c.emitBody(chunks, bodyLen, plain)
}

// flattenInto assembles the chunks into *buf, growing it as needed; the
// result is valid until the next call with the same buf.
func flattenInto(buf *[]byte, chunks []tcpip.Chunk, total int) []byte {
	if cap(*buf) < total {
		*buf = make([]byte, 0, total)
	}
	out := (*buf)[:0]
	for _, ch := range chunks {
		out = append(out, ch.Data...)
	}
	*buf = out
	return out
}
