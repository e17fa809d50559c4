package ktls

import (
	"fmt"
	"slices"

	"repro/internal/cycles"
	"repro/internal/gcm"
	"repro/internal/l5p"
	"repro/internal/meta"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

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
// flags inherited from the enclosing packets. Data is borrowed from the
// received frame or the Conn's record buffer: valid until OnPlain returns.
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

	// Whole-record software crypto uses the standard library AEAD that
	// cipher holds for the key; the incremental cipher Stream serves only
	// the partial-record mixed pass of §5.2, which must advance over
	// arbitrary byte ranges. Both run on AES-NI and carry-less multiply and
	// produce identical bytes.
	cipher   *gcm.Cipher
	rxStream gcm.Stream // the mixed pass's stream, initialised in place per record
	txSeq    uint64     // next record index to transmit
	rxSeq    uint64     // next record index expected from the wire

	// rxRec holds a received record flattened for software crypto,
	// decrypted in place, and past its end the partial-record pass's
	// plaintext: OnPlain gets the bytes until it returns, like every receive
	// callback. A transmitted record needs no buffer of its own: Write
	// builds it in the socket's send ring.
	rxRec []byte

	// Transmit offload state. Offloaded records stay in the socket's send
	// ring until the retainer drops them, after TCP has acknowledged all of
	// them, for the driver's recovery replay (§4.2).
	dev    l5p.Device
	tx     *txContext // nil: records are encrypted in software
	retain l5p.TxRetainer

	// Receive offload state.
	rx      *rxContext
	innerRx *offload.RxEngine // stacked engine (NVMe over TLS)
	resync  l5p.ResyncMailbox

	asm l5p.Assembler // record assembly; handleRecord does not retain its result

	// dead marks a connection killed by a fatal record-layer error: TLS
	// cannot resynchronize past a bad record, so nothing after it may be
	// delivered (a skipped record would be a silent gap in the stream).
	dead     bool
	zeroCopy bool // transmit offload without the private copy (§5.2)
	// nonce is the AEAD calls' nonce, built in place: a local array passed
	// through the cipher.AEAD interface would move to the heap per record.
	nonce [gcm.NonceSize]byte

	// OnPlain receives decrypted application data in order. Required
	// before any data arrives. The chunk's bytes are valid until OnPlain
	// returns; a consumer that keeps them copies them.
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

// NewConn wraps an established socket with the TLS record layer. It takes
// over the socket's OnReadable and OnDrain callbacks and its Owner.
func NewConn(sock *tcpip.Socket, cfg Config) (*Conn, error) {
	if cfg.RecordSize <= 0 || cfg.RecordSize > MaxPlaintext {
		cfg.RecordSize = MaxPlaintext
	}
	ciph, err := gcm.NewCached(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("ktls: %w", err)
	}
	model, ledger, spares := sock.StackModel(), sock.StackLedger(), sock.Spares()
	c := &Conn{
		sock:     sock,
		cfg:      cfg,
		model:    model,
		ledger:   ledger,
		cipher:   ciph,
		tr:       sock.StackTracer(),
		traceTid: sock.StackTraceTid() + ".tls",
		retain:   l5p.TxRetainer{Model: model, Ledger: ledger, Ring: sock, Spares: spares},
		resync:   l5p.ResyncMailbox{Model: model, Ledger: ledger},
		asm:      l5p.Assembler{HeaderLen: HeaderLen, Parse: ParseHeader, Spares: spares},
	}
	sock.Owner, sock.OnReadable, sock.OnDrain = c, connReadable, connDrain
	return c, nil
}

// connReadable and connDrain are every Conn's socket callbacks: they find
// the Conn as the socket's Owner, so a connection binds no closure.
func connReadable(s *tcpip.Socket) { s.Owner.(*Conn).onReadable(s) }

func connDrain(s *tcpip.Socket) {
	if c := s.Owner.(*Conn); c.OnDrain != nil {
		c.OnDrain(c)
	}
}

// Socket returns the underlying TCP socket.
func (c *Conn) Socket() *tcpip.Socket { return c.sock }

// txRetainInitial is how many records a new offloaded connection's
// retainer has room for: what a short connection sends before its first
// acknowledgment (churn's 36 KiB in 4 KiB records), so Write does not grow
// the store; a bulk sender grows it to its window once.
const txRetainInitial = 16

// txContext and rxContext are one direction's whole NIC context for a flow,
// §4.1's static state (the key schedule and IV, HW) and dynamic state (the
// crypto stream in the ops, the message cursor in the engine) in one
// object: l5o_create takes one that an earlier connection on the stack
// handed back, or allocates it, and initialises every part; l5o_destroy
// hands it back, with nothing in it leading to its connection, once the
// NIC holds no pointer to it.
type txContext struct {
	hw     HW
	ops    TxOps
	engine offload.TxEngine
}

type rxContext struct {
	hw     HW
	ops    RxOps
	engine offload.RxEngine
}

// contextSparesMax bounds the contexts of each direction a stack keeps for
// its next connections; past that many offloads destroyed and not yet
// replaced, the contexts are left to the collector.
const contextSparesMax = 64

// spareContext takes a context a destroyed offload on the stack handed
// back, or allocates one. The caller initialises every part of it.
func spareContext[T txContext | rxContext](sp *tcpip.Spares) *T {
	if ctx, ok := tcpip.LotOf[*T](sp).Take(); ok {
		return ctx
	}
	return new(T)
}

// EnableTxOffload installs a transmit crypto context on the NIC starting at
// the current write position (l5o_create, §4.1). With zeroCopy, sendfile
// buffers are handed to the NIC without the private-copy the non-offloaded
// path needs (§5.2).
func (c *Conn) EnableTxOffload(dev l5p.Device, zeroCopy bool) error {
	if c.tx != nil {
		return fmt.Errorf("ktls: tx offload already enabled")
	}
	ctx := spareContext[txContext](c.asm.Spares)
	if err := ctx.hw.init(c.cfg.Key, c.cfg.TxIV, c.model, c.ledger); err != nil {
		return err
	}
	ctx.ops.init(&ctx.hw, c.asm.Spares)
	c.dev = dev
	c.zeroCopy = zeroCopy
	c.retain.Grow(txRetainInitial)
	ctx.engine.Init(&ctx.ops, &c.retain, c.sock.WriteSeq())
	c.tx = ctx
	dev.AttachTx(c.sock.Flow(), &ctx.engine)
	return nil
}

// EnableRxOffload installs a receive crypto context on the NIC starting at
// the current read position.
func (c *Conn) EnableRxOffload(dev l5p.Device) error {
	if c.rx != nil {
		return fmt.Errorf("ktls: rx offload already enabled")
	}
	ctx := spareContext[rxContext](c.asm.Spares)
	if err := ctx.hw.init(c.cfg.Key, c.cfg.RxIV, c.model, c.ledger); err != nil {
		return err
	}
	ctx.ops.init(&ctx.hw, c)
	c.installRx(dev, ctx, &ctx.ops, &c.resync)
	return nil
}

// InstallRxEngine attaches a receive engine built from custom ops, with
// the connection's resync mailbox as its l5o_resync_rx_req upcall target
// if resync is set and without one otherwise. Experiments use it to ablate
// pieces of the recovery machinery; EnableRxOffload is the normal entry
// point. The engine is valid until DisableRxOffload.
func (c *Conn) InstallRxEngine(dev l5p.Device, ops *RxOps, resync bool) *offload.RxEngine {
	var req offload.ResyncRequester
	if resync {
		req = &c.resync
	}
	ctx := spareContext[rxContext](c.asm.Spares) // only its engine is used
	c.installRx(dev, ctx, ops, req)
	return &ctx.engine
}

// installRx initialises ctx's engine in place over ops and attaches it.
func (c *Conn) installRx(dev l5p.Device, ctx *rxContext, ops *RxOps, resync offload.ResyncRequester) {
	c.dev = dev
	e := &ctx.engine
	e.Init(ops, c.sock.ReadSeq(), resync)
	c.rx = ctx
	if c.cfg.RxFallback != nil {
		e.SetFallbackPolicy(*c.cfg.RxFallback)
	} else {
		e.SetFallbackPolicy(offload.DefaultFallbackPolicy())
	}
	dev.AttachRx(c.sock.Flow().Reverse(), e)
}

// DisableTxOffload detaches the transmit engine from the NIC
// (l5o_destroy). Only safe once every offloaded byte has been ACKed: the
// NIC encrypts at transmit time, so a retransmission after detach would
// leak plaintext. Callers detach after the socket drains — connection
// teardown under churn is the expected site. The retained records go with
// the engine, and a torn-down socket's send ring is recycled only now; the
// context and the retainer's record index go back to the stack, whether
// or not an error killed the connection.
func (c *Conn) DisableTxOffload() {
	ctx := c.tx
	if ctx == nil {
		return
	}
	c.dev.DetachTx(c.sock.Flow())
	c.tx = nil
	c.retain.Close()
	ctx.engine = offload.TxEngine{} // its source is this Conn's retainer
	tcpip.LotOf[*txContext](c.asm.Spares).Put(ctx, contextSparesMax)
}

// DisableRxOffload detaches the receive engine (l5o_destroy). Records
// already decrypted stay decrypted; anything arriving afterwards takes the
// software path, so it is safe at any point — teardown under churn is the
// expected site. The context goes back to the stack, whether or not an
// error killed the connection.
func (c *Conn) DisableRxOffload() {
	ctx := c.rx
	if ctx == nil {
		return
	}
	c.dev.DetachRx(c.sock.Flow().Reverse())
	c.rx = nil
	c.resync.Reset()
	// Both lead back to this Conn, which the stack must not keep reachable.
	ctx.engine, ctx.ops.inner = offload.RxEngine{}, nil
	tcpip.LotOf[*rxContext](c.asm.Spares).Put(ctx, contextSparesMax)
}

// SetInnerRxEngine stacks an inner offload engine (e.g. NVMe-TCP) that
// consumes the NIC-decrypted plaintext stream (§5.3).
func (c *Conn) SetInnerRxEngine(e *offload.RxEngine) { c.innerRx = e }

// RxEngine exposes the receive engine for tests and experiments, or nil
// without receive offload. It is valid until DisableRxOffload, which hands
// its context to the next connection: read its Stats before.
func (c *Conn) RxEngine() *offload.RxEngine {
	if c.rx == nil {
		return nil
	}
	return &c.rx.engine
}

// TxEngine exposes the transmit engine for tests and experiments, or nil
// without transmit offload. It is valid until DisableTxOffload, which
// hands its context to the next connection: read its Stats before.
func (c *Conn) TxEngine() *offload.TxEngine {
	if c.tx == nil {
		return nil
	}
	return &c.tx.engine
}

func (c *Conn) emitToInner(seq uint32, plain []byte, contiguous bool) meta.RxFlags {
	if c.innerRx == nil {
		return 0
	}
	return c.innerRx.Process(seq, plain, contiguous)
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
// to continue after backpressure). Each record is built in place in the
// socket's send ring (Reserve, Commit), so the plaintext is copied once.
// With transmit offload the record bodies are written in plaintext with a
// dummy ICV for the NIC to fill; otherwise they are encrypted in software.
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
		rec := c.sock.Reserve(total)
		if len(rec) < total {
			c.fail(fmt.Errorf("ktls: short socket write (%d of %d bytes) despite space check", len(rec), total))
			return consumed
		}
		PutHeader(rec, n)
		c.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, c.model.L5PPerMessage, 0)
		if c.tx != nil {
			// Skip the crypto: plaintext body, dummy ICV (§3.1). The copy
			// into the record is the cost zero-copy sendfile avoids.
			copy(rec[HeaderLen:], p[:n])
			clear(rec[HeaderLen+n:]) // the ring is reused: zero the dummy ICV
			if !c.zeroCopy {
				c.ledger.Charge(cycles.HostL5P, cycles.Copy,
					c.model.CopyCycles(n, 0), n)
			}
			c.retain.Add(c.sock.WriteSeq(), c.txSeq, total, c.sock.AckedSeq())
		} else {
			c.nonce = RecordNonce(c.cfg.TxIV, c.txSeq)
			c.cipher.AEAD().Seal(rec[HeaderLen:HeaderLen], c.nonce[:], p[:n], rec[:HeaderLen])
			c.ledger.Charge(cycles.HostL5P, cycles.Encrypt, c.model.GCMCycles(n), n)
			if !c.cfg.Sendfile {
				// copy_from_user into the skb (the offload path pays the
				// equivalent copy into the record above).
				c.ledger.Charge(cycles.HostL5P, cycles.Copy, c.model.CopyCycles(n, 0), n)
			}
			c.Stats.SwEncryptBytes += uint64(n)
		}
		c.sock.Commit(total)
		c.txSeq++
		c.Stats.RecordsTx++
		p = p[n:]
		consumed += n
	}
	return consumed
}

// onReadable drains the socket and processes complete records.
func (c *Conn) onReadable(s *tcpip.Socket) {
	if !c.dead {
		for {
			ch, ok := s.ReadChunk()
			if !ok {
				break
			}
			c.asm.Push(ch)
		}
	}
	for !c.dead {
		rec, total, err := c.asm.Next()
		if err != nil {
			c.fail(fmt.Errorf("ktls: %w", err))
			break
		}
		if rec == nil {
			break
		}
		c.handleRecord(rec, total)
	}
	switch {
	case c.dead:
		// Nothing after the fatal error is delivered, and no record is
		// being handled any more.
		c.release()
	case s.EOF():
		// A record the stream ended inside can never complete: the Conn
		// lets it go but does not report a clean close.
		whole := c.asm.Buffered() == 0
		c.release()
		if whole && c.OnClose != nil {
			c.OnClose(c)
		}
	}
}

// release hands the receive side's arrays — the assembler's and the record
// buffer — back to the stack's spares once the stream is over, or the
// connection dead, so a closed Conn holds none.
func (c *Conn) release() {
	c.asm.Release()
	c.asm.Spares.PutBytes(c.rxRec)
	c.rxRec = nil
}

// recBuf returns rxRec emptied, borrowing an array of at least n bytes
// from the stack's spares (the ones the assembler is lent) for the
// connection's first software record.
func (c *Conn) recBuf(n int) []byte {
	if c.rxRec == nil {
		c.rxRec = c.asm.Spares.Bytes(n)
	}
	return c.rxRec[:0]
}

// fail kills the connection. Its receive side's arrays go back to the
// stack's spares at the end of onReadable — the one it dies in, whose
// record may still be on them, or the next.
func (c *Conn) fail(err error) {
	c.dead = true
	if c.OnError != nil {
		c.OnError(err)
	} else {
		panic(err)
	}
}

const fullRxFlags = meta.TLSOffloaded | meta.TLSDecrypted | meta.TLSAuthOK

// testRecordTap, when non-nil, observes every record's raw chunks before
// classification (test-only instrumentation).
var testRecordTap func(chunks []tcpip.Chunk, recStart uint32, rxSeq int)

// handleRecord classifies one complete record by its chunks' offload
// verdicts and takes the corresponding path: skip crypto, full software
// fallback, or the partial-record mixed pass of §5.2.
func (c *Conn) handleRecord(chunks []tcpip.Chunk, total int) {
	recStart := chunks[0].Seq
	bodyLen := total - HeaderLen - TagLen
	// One read syscall drains roughly one record's worth of stream.
	c.ledger.Charge(cycles.HostL5P, cycles.Syscall, c.model.SyscallCost, 0)
	if testRecordTap != nil {
		testRecordTap(chunks, recStart, int(c.rxSeq))
	}
	c.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, c.model.L5PPerMessage, 0)

	// Answer an outstanding NIC resync request once the stream position
	// reaches it (l5o_resync_rx_resp, §4.3).
	if c.resync.Answer(c.RxEngine(), recStart, total, c.rxSeq) {
		c.Stats.ResyncResponses++
	}

	all, some := l5p.Verdict(chunks)
	switch {
	case all.Has(fullRxFlags):
		// Fully offloaded: body is already plaintext and authenticated.
		c.Stats.RxFullyOffloaded++
		c.tr.Instant1("l5p", "tls.rec.offloaded", c.traceTid, "rec", int64(c.rxSeq))
		c.emitBody(chunks, bodyLen, nil)
	case !some.Has(meta.TLSDecrypted):
		// Fully un-offloaded: classic software decrypt.
		c.Stats.RxUnoffloaded++
		c.tr.Instant1("l5p", "tls.rec.unoffloaded", c.traceTid, "rec", int64(c.rxSeq))
		c.softwareDecrypt(chunks, total, bodyLen)
	default:
		// Partially offloaded: authenticate by re-encrypting the ranges
		// the NIC decrypted while decrypting the rest — costlier than full
		// decryption (§5.2).
		c.Stats.RxPartial++
		c.tr.Instant1("l5p", "tls.rec.partial", c.traceTid, "rec", int64(c.rxSeq))
		c.partialFallback(chunks, total, bodyLen)
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
	for off, part := range l5p.Clip(chunks, HeaderLen, HeaderLen+bodyLen) {
		data := part.Data
		if plain != nil {
			data = plain[off-HeaderLen:][:len(data)]
		}
		c.OnPlain(PlainChunk{Data: data, WireSeq: part.Seq, Flags: part.Flags})
	}
}

func (c *Conn) softwareDecrypt(chunks []tcpip.Chunk, total, bodyLen int) {
	c.rxRec = l5p.AppendRange(c.recBuf(total), chunks, 0, total)
	rec := c.rxRec
	c.nonce = RecordNonce(c.cfg.RxIV, c.rxSeq)
	c.ledger.Charge(cycles.HostL5P, cycles.Decrypt, c.model.GCMCycles(bodyLen), bodyLen)
	c.Stats.SwDecryptBytes += uint64(bodyLen)
	// In place: the plaintext overwrites the ciphertext it came from.
	plain, err := c.cipher.AEAD().Open(rec[HeaderLen:HeaderLen], c.nonce[:], rec[HeaderLen:], rec[:HeaderLen])
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
	if c.rx != nil {
		c.rx.engine.NoteAuthFailure()
	}
	c.fail(err)
}

func (c *Conn) partialFallback(chunks []tcpip.Chunk, total, bodyLen int) {
	// The record and, behind it, its plaintext share rxRec.
	c.rxRec = l5p.AppendRange(slices.Grow(c.recBuf(total+bodyLen), total+bodyLen), chunks, 0, total)
	rec, plain := c.rxRec, c.rxRec[total:total+bodyLen]
	nonce := RecordNonce(c.cfg.RxIV, c.rxSeq)
	s := &c.rxStream
	c.cipher.InitStream(s, gcm.Open, nonce[:], rec[:HeaderLen])

	reenc := 0
	for off, part := range l5p.Clip(chunks, HeaderLen, HeaderLen+bodyLen) {
		seg := rec[off:][:len(part.Data)]
		p := plain[off-HeaderLen:][:len(seg)]
		if part.Flags.Has(meta.TLSDecrypted) {
			// Already plaintext: keep it, then re-encrypt the flattened
			// copy in place to feed the GHASH.
			copy(p, seg)
			s.Transform(seg, seg, false)
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
