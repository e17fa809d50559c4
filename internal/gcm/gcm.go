// Package gcm implements AES-GCM as an *incremental* stream: encryption,
// decryption, and authentication can be advanced over arbitrary byte ranges
// while carrying only constant-size state between calls.
//
// The Go standard library's cipher.AEAD seals and opens whole messages at
// once, but a NIC processes a TLS record packet by packet: the offload
// context stores the CTR position and the running GHASH between packets
// (the paper's "incrementally computable over any byte range … given only
// some constant-size state", §3.2). A Stream is that state machine.
//
// What is modeled and what merely executes are different things here. The
// modeled cost of crypto is charged to the cycles ledger by the callers;
// the modeled engine state is what a Stream carries between packets — the
// counter position (nonce + byte offset) and the GHASH accumulator with
// its partial block. Producing the bytes is host overhead, so it runs on
// the standard library's hardware paths. Sealing runs each call's whole
// blocks through one fused stdlib Seal started at an arbitrary counter
// block, by a nonce derived so that the AEAD's own J0 is that block (see
// Stream); opening runs the stdlib's AES-CTR seeked to an explicit counter
// and its AEAD's carry-less multiply for GHASH, read back out of an
// AAD-only Seal (see Cipher). The package tests and FuzzStreamVsAEAD
// verify byte-for-byte equality with crypto/cipher's GCM.
package gcm

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// cipherCache memoizes Ciphers by key: experiments run thousands of flows
// sharing session keys, and each Cipher carries a 64 KiB GHASH table.
var (
	cacheMu     sync.Mutex
	cipherCache = make(map[string]*Cipher)
)

// NewCached returns a Cipher for the key, reusing a previously built one.
// A Cipher never changes after New, so sharing is safe, across goroutines.
func NewCached(key []byte) (*Cipher, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if c, ok := cipherCache[string(key)]; ok {
		return c, nil
	}
	c, err := New(key)
	if err != nil {
		return nil, err
	}
	cipherCache[string(key)] = c
	return c, nil
}

// AEADCached returns the standard library's AES-GCM AEAD for the key, the
// one NewCached's Cipher holds. Host software seals and opens whole records
// with it; the Stream, byte-identical over a whole message, models the NIC's
// packet-by-packet engines and the partial-record fallback.
func AEADCached(key []byte) (cipher.AEAD, error) {
	c, err := NewCached(key)
	if err != nil {
		return nil, err
	}
	return c.aead, nil
}

// Standard AES-GCM parameters.
const (
	// NonceSize is the GCM nonce length in bytes.
	NonceSize = 12
	// TagSize is the authentication tag length in bytes.
	TagSize   = 16
	blockSize = 16

	// maxDataLen is GCM's own limit of 2³²−2 blocks per message (NIST SP
	// 800-38D §5.2.1.1): past it the 32-bit block counter would wrap onto
	// J0. The stdlib CTR would instead carry into the nonce, so transform
	// refuses to go there.
	maxDataLen = (1<<32 - 2) * blockSize

	// runLen is the most one GHASH Seal absorbs; longer runs are chained
	// through the accumulator, so the pooled scratch stays small.
	runLen = 4096
)

// fieldElement is an element of GF(2^128) in GCM's reflected bit order:
// low holds bits 0–63 (the first eight bytes, big-endian), high bits 64–127.
type fieldElement struct {
	low, high uint64
}

func load(b []byte) fieldElement {
	return fieldElement{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:16])}
}

func store(b []byte, x fieldElement) {
	binary.BigEndian.PutUint64(b[:8], x.low)
	binary.BigEndian.PutUint64(b[8:16], x.high)
}

func gcmAdd(x, y fieldElement) fieldElement {
	return fieldElement{x.low ^ y.low, x.high ^ y.high}
}

// gcmDouble multiplies by the polynomial x in GF(2^128), reducing by the
// GCM polynomial 1 + x + x² + x⁷ + x¹²⁸ when the x¹²⁷ bit shifts out.
func gcmDouble(x fieldElement) fieldElement {
	return fieldElement{x.low>>1 ^ 0xe100000000000000&-(x.high&1), x.high>>1 | x.low<<63}
}

// poly is a polynomial over GF(2) in natural bit order (bit i of word i/64
// is the coefficient of xⁱ), wide enough for the field polynomial.
type poly [3]uint64

var fieldPoly = poly{0x87, 0, 1} // x¹²⁸ + x⁷ + x² + x + 1

func (p *poly) add(q *poly) { p[0], p[1], p[2] = p[0]^q[0], p[1]^q[1], p[2]^q[2] }

// half divides an even p by x.
func (p *poly) half() { p[0], p[1], p[2] = p[0]>>1|p[1]<<63, p[1]>>1|p[2]<<63, p[2]>>1 }

func (p *poly) deg() int {
	i := 2
	for i > 0 && p[i] == 0 {
		i--
	}
	return 64*i + bits.Len64(p[i]) - 1
}

// inverse returns a⁻¹ for a ≠ 0 by the binary extended Euclidean algorithm
// over GF(2)[x] (Hankerson, Menezes and Vanstone, "Guide to Elliptic Curve
// Cryptography", Alg. 2.48): u and v shrink from a and the field polynomial
// towards 1 while g1·a ≡ u and g2·a ≡ v (mod it) hold; v is always odd.
func inverse(a fieldElement) fieldElement {
	u, v := poly{bits.Reverse64(a.low), bits.Reverse64(a.high)}, fieldPoly
	g1, g2 := poly{1}, poly{}
	for {
		for ; u[0]&1 == 0; u.half() {
			if g1[0]&1 == 1 {
				g1.add(&fieldPoly)
			}
			g1.half()
		}
		if u == (poly{1}) {
			return fieldElement{bits.Reverse64(g1[0]), bits.Reverse64(g1[1])}
		}
		if u.deg() < v.deg() {
			u, v, g1, g2 = v, u, g2, g1
		}
		u.add(&v)
		g1.add(&g2)
	}
}

// mulTable multiplies by a constant k with byte-position tables:
// t[pos][b] is the field product of k with the block that has byte b at
// position pos and zeros elsewhere, so a multiply is 16 table lookups — the
// classic 64 KiB software GHASH layout.
type mulTable [16][256]fieldElement

func (t *mulTable) init(k fieldElement) {
	// Bit i of the block (MSB of byte 0 is bit 0) is the coefficient of
	// x^i; multiplying by x is gcmDouble in this reflected layout.
	var bitElem [128]fieldElement
	bitElem[0] = k
	for i := 1; i < 128; i++ {
		bitElem[i] = gcmDouble(bitElem[i-1])
	}
	for pos := 0; pos < 16; pos++ {
		for b := 1; b < 256; b++ {
			// Build incrementally from b with its lowest set bit cleared;
			// in-byte bit index j counts from the MSB.
			j := 7 - bits.TrailingZeros8(uint8(b))
			t[pos][b] = gcmAdd(t[pos][b&(b-1)], bitElem[pos*8+j])
		}
	}
}

// mulInv returns y·H⁻¹. It is fully unrolled: every table index is a
// constant-shift byte extraction, so the compiler drops the bounds checks
// and the 16 loads pipeline instead of serializing behind loop-carried
// shifts.
func (c *Cipher) mulInv(y fieldElement) fieldElement {
	t := &c.hInv
	lo, hi := y.low, y.high
	e0 := t[0][lo>>56]
	e1 := t[1][lo>>48&0xff]
	e2 := t[2][lo>>40&0xff]
	e3 := t[3][lo>>32&0xff]
	e4 := t[4][lo>>24&0xff]
	e5 := t[5][lo>>16&0xff]
	e6 := t[6][lo>>8&0xff]
	e7 := t[7][lo&0xff]
	e8 := t[8][hi>>56]
	e9 := t[9][hi>>48&0xff]
	e10 := t[10][hi>>40&0xff]
	e11 := t[11][hi>>32&0xff]
	e12 := t[12][hi>>24&0xff]
	e13 := t[13][hi>>16&0xff]
	e14 := t[14][hi>>8&0xff]
	e15 := t[15][hi&0xff]
	return fieldElement{
		e0.low ^ e1.low ^ e2.low ^ e3.low ^ e4.low ^ e5.low ^ e6.low ^ e7.low ^
			e8.low ^ e9.low ^ e10.low ^ e11.low ^ e12.low ^ e13.low ^ e14.low ^ e15.low,
		e0.high ^ e1.high ^ e2.high ^ e3.high ^ e4.high ^ e5.high ^ e6.high ^ e7.high ^
			e8.high ^ e9.high ^ e10.high ^ e11.high ^ e12.high ^ e13.high ^ e14.high ^ e15.high,
	}
}

// Cipher is an AES key schedule, the standard library's AEAD for the key,
// and what it takes to read a running GHASH back out of that AEAD: the
// static per-connection state of an offload context (the "cipher keys" of
// §4.1). One Cipher serves any number of records/streams; nothing in it
// changes after New.
//
// For an AAD-only message of whole blocks B₁…Bₙ with the accumulator y
// XORed into B₁, the AEAD's tag is (yₙ ⊕ L)·H ⊕ mask, where yᵢ = (yᵢ₋₁ ⊕
// Bᵢ)·H steps y over the run, L = [128n]₆₄‖0 is the length block and mask =
// E(K, J0) the empty message's tag. So y' = yₙ = (tag ⊕ mask)·H⁻¹ ⊕ L: one
// Seal on the CPU's carry-less multiply and one table multiply per run.
//
// The same identity reads y back out of a Seal with data, which a Seal
// Stream runs through sealer, the AEAD for 16-byte nonces: for nonce N its
// J0 is GHASH(N ‖ [0]₆₄‖[128]₆₄) = (N·H ⊕ [0]₆₄‖[128]₆₄)·H, so the nonce
// N = (J0′·H⁻¹ ⊕ [0]₆₄‖[128]₆₄)·H⁻¹ starts its counter at any block J0′ we
// choose, and mask becomes E(K, J0′). A Cipher with H = 0 has no H⁻¹: its
// Streams keep a CTR in both directions, and its GHASH is identically 0.
type Cipher struct {
	block  cipher.Block
	aead   cipher.AEAD
	sealer cipher.AEAD // 16-byte nonces: the fused Seal of a Seal Stream
	mask   fieldElement
	zeroH  bool     // H = 0 (probability 2⁻¹²⁸): GHASH ≡ 0, and H has no inverse
	hInv   mulTable // multiplies by H⁻¹
}

// zeroNonce is the nonce of every GHASH Seal, so J0 = 0⁹⁶‖1.
var zeroNonce [NonceSize]byte

// New builds a Cipher from a 16-, 24-, or 32-byte AES key.
func New(key []byte) (*Cipher, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	sealer, err := cipher.NewGCMWithNonceSize(block, blockSize)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	var h, tag [blockSize]byte
	block.Encrypt(h[:], h[:]) // H = E(K, 0¹²⁸)
	c := &Cipher{block: block, aead: aead, sealer: sealer, zeroH: load(h[:]) == fieldElement{},
		mask: load(aead.Seal(tag[:0], zeroNonce[:], nil, nil))}
	if !c.zeroH {
		c.hInv.init(inverse(load(h[:])))
	}
	return c, nil
}

// AEAD returns the standard library's AES-GCM AEAD for the Cipher's key.
func (c *Cipher) AEAD() cipher.AEAD { return c.aead }

// scratch is one GHASH run plus room for the tag, or a fused Seal's
// keystream block, nonce, AAD and the bytes its tag overwrites. It is
// pooled rather than held by each Stream (growing every flow context) or
// each Cipher (a lock every world sharing the key would contend on), so
// Cipher stays immutable; and what an interface method is handed must not
// live on the stack, or it would escape to the heap at every call.
type scratch [runLen + TagSize]byte

// Regions of a scratch during a fused Seal (Stream.seal).
const (
	scKey   = 0            // keystream block E(K, counter)
	scNonce = scKey + 16   // the derived nonce N
	scAAD   = scNonce + 16 // A = y·H⁻¹, then the block the head completed
	scSaved = scAAD + 32   // the TagSize bytes of dst the tag lands on
	scEnd   = scSaved + 16
)

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// ghash folds the whole blocks of head‖data into the accumulator, y =
// (y ⊕ block)·H for each, by the identity in Cipher's comment, runLen bytes
// per Seal. len(head) ≤ 16 and len(head)+len(data) is a multiple of 16.
//
//simlint:hotpath
func (c *Cipher) ghash(y fieldElement, head, data []byte) fieldElement {
	if c.zeroH {
		return fieldElement{}
	}
	sc := scratchPool.Get().(*scratch)
	for len(head)+len(data) > 0 {
		n := copy(sc[:], head)
		m := copy(sc[n:runLen], data)
		head, data, n = nil, data[m:], n+m
		binary.BigEndian.PutUint64(sc[:8], binary.BigEndian.Uint64(sc[:8])^y.low)
		binary.BigEndian.PutUint64(sc[8:16], binary.BigEndian.Uint64(sc[8:16])^y.high)
		tag := c.aead.Seal(sc[runLen:runLen], zeroNonce[:], nil, sc[:n])
		y = c.mulInv(gcmAdd(load(tag), c.mask))
		y.low ^= uint64(n) * 8
	}
	scratchPool.Put(sc)
	return y
}

// Direction selects whether a Stream produces ciphertext or plaintext.
type Direction int

const (
	// Seal encrypts plaintext and authenticates the resulting ciphertext.
	Seal Direction = iota
	// Open decrypts ciphertext and authenticates the input ciphertext.
	Open
)

// Stream is the in-flight state of one AES-GCM message (one TLS record).
// It is deliberately small: an offload flow context holds one Stream by
// value as its dynamic state, initialises it in place with InitStream at
// each record, and advances it packet by packet. A Stream must not be
// copied once initialised — the copy would share the keystream position.
//
// A Seal stream keeps no keystream object: its counter position is
// dataLen. Each Update sends its whole blocks through one in-place Seal of
// the Cipher's 16-byte-nonce AEAD, whose nonce makes the AEAD's J0 the
// counter block J0′ = nonce‖(1+m) of the block before the run's first
// block m (see Cipher), so its keystream starts at block m. Its AAD is A =
// y·H⁻¹, which the AEAD's GHASH steps to y, followed by the block the
// call's head completed, X, which steps y to (y ⊕ X)·H; its tag then gives
// y′ = (tag ⊕ E(K, J0′))·H⁻¹ ⊕ L, L the length block of that AAD and run.
// The ≤ 15-byte head and tail take single block.Encrypt keystream blocks.
// An Open stream keeps one stdlib CTR per record, because the one-pass
// stdlib Open checks the tag before it releases plaintext and a packet
// does not carry the tag. So does a Seal stream from the first call that
// hands it ciphertext, and from a Skip on.
type Stream struct {
	c   *Cipher
	dir Direction

	// CTR state: the stdlib AES-CTR of an Open stream, made by its first
	// call and positioned at byte dataLen of the message (nil before then
	// and in a Seal stream). ctr is the nonce and the counter block last
	// seeked to or encrypted (J0 with the block offset added); it lives
	// here so that the slice handed to cipher.NewCTR or Block.Encrypt does
	// not escape as an allocation of its own.
	ks  cipher.Stream
	ctr [blockSize]byte

	// GHASH state.
	y       fieldElement
	buf     [blockSize]byte // partial GHASH block
	bufLen  int
	aadLen  uint64
	dataLen uint64

	// Tag mask E(K, J0).
	tagMask [blockSize]byte
}

// NewStream begins a message with the given 12-byte nonce and optional
// additional authenticated data.
func (c *Cipher) NewStream(dir Direction, nonce, aad []byte) *Stream {
	s := new(Stream)
	c.InitStream(s, dir, nonce, aad)
	return s
}

// InitStream is NewStream into caller-owned memory: it overwrites *s with
// the start-of-message state. It allocates nothing: an Open stream makes
// its stdlib CTR object at its first Update, so one that Skips first makes
// it once, at the skipped offset.
func (c *Cipher) InitStream(s *Stream, dir Direction, nonce, aad []byte) {
	if len(nonce) != NonceSize {
		panic(fmt.Sprintf("gcm: nonce length %d, want %d", len(nonce), NonceSize))
	}
	*s = Stream{c: c, dir: dir, aadLen: uint64(len(aad))}
	copy(s.ctr[:], nonce)
	s.ctr[blockSize-1] = 1 // J0
	c.block.Encrypt(s.tagMask[:], s.ctr[:])
	if dir == Seal && c.zeroH {
		s.seek()
	}
	s.ghashUpdate(aad)
	s.ghashFlushPad(nil)
}

// seek positions the keystream at byte dataLen of the message: a CTR over
// counter block J0+1+⌊dataLen/16⌋ with dataLen%16 bytes discarded.
func (s *Stream) seek() {
	binary.BigEndian.PutUint32(s.ctr[12:], uint32(2+s.dataLen/blockSize))
	s.ks = cipher.NewCTR(s.c.block, s.ctr[:])
	if rem := s.dataLen % blockSize; rem > 0 {
		// NewCTR has copied the counter block, so it takes the discard;
		// the nonce in it is put back. (The GHASH partial block cannot: a
		// Seal stream switching to the CTR mid-block is still
		// authenticating.)
		ctr := s.ctr
		s.ks.XORKeyStream(s.ctr[:rem], s.ctr[:rem])
		s.ctr = ctr
	}
}

// keyBlock writes the keystream block E(K, nonce‖ctr) to ks.
func (s *Stream) keyBlock(ks []byte, ctr uint32) {
	binary.BigEndian.PutUint32(s.ctr[12:], ctr)
	s.c.block.Encrypt(ks, s.ctr[:])
}

// ghashUpdate absorbs data: the pending partial block and the whole blocks
// of data after it go through one ghash call, and the tail stays pending.
//
//simlint:hotpath
func (s *Stream) ghashUpdate(data []byte) {
	if s.bufLen+len(data) < blockSize {
		s.bufLen += copy(s.buf[s.bufLen:], data)
		return
	}
	whole := (s.bufLen+len(data))&^(blockSize-1) - s.bufLen
	s.y = s.c.ghash(s.y, s.buf[:s.bufLen], data[:whole])
	s.bufLen = copy(s.buf[:], data[whole:])
}

// ghashFlushPad zero-pads and absorbs any partial GHASH block, then the
// whole blocks of next, in one run: InitStream calls it at the AAD/data
// boundary, Tag with the length block.
func (s *Stream) ghashFlushPad(next []byte) {
	if s.bufLen > 0 {
		clear(s.buf[s.bufLen:])
		s.bufLen = 0
		s.y = s.c.ghash(s.y, s.buf[:], next)
	} else if len(next) > 0 {
		s.y = s.c.ghash(s.y, nil, next)
	}
}

// Update processes the next len(src) bytes of the message into dst (which
// must be at least as long as src and may alias it exactly). For Seal, src
// is plaintext and dst ciphertext; for Open, the reverse. Update may be
// called any number of times with arbitrary lengths — this is the per-packet
// entry point.
//
// A Seal stream's fused pass lets the stdlib append its tag to the run, so
// the tag lands in up to TagSize bytes of dst's spare capacity
// (dst[len(src):cap(dst)]), which the call saves and restores before it
// returns: nothing may read them meanwhile. Without that capacity the last
// whole block takes the per-block path. A transmit body always has those
// bytes: the record trailer or the frame's slack follows it.
func (s *Stream) Update(dst, src []byte) {
	s.transform(dst, src, s.dir == Open)
}

// Transform is Update with an explicit per-call statement of which side of
// the XOR src is on: srcIsCiphertext=true behaves like Open (authenticate
// src, output plaintext), false like Seal (output ciphertext, authenticate
// it). kTLS software uses this for the partial-record fallback of §5.2: a
// record whose packets are a mix of NIC-decrypted plaintext and raw
// ciphertext is authenticated in one pass, re-encrypting the NIC-decrypted
// ranges to recover the ciphertext the GHASH needs. dst's spare capacity is
// used as in Update; a Seal stream handed ciphertext takes a CTR from then
// on.
func (s *Stream) Transform(dst, src []byte, srcIsCiphertext bool) {
	s.transform(dst, src, srcIsCiphertext)
}

// Skip advances the keystream over n bytes that this stream will never see,
// without authenticating them. The NIC uses it to resume mid-message after
// unoffloaded packets (Fig. 8b); the stream's tag is meaningless afterwards
// and must not be checked.
func (s *Stream) Skip(n int) {
	if n == 0 {
		return
	}
	s.advance(n)
	if s.ks != nil || s.dir == Seal {
		s.seek()
	}
}

// advance moves dataLen forward by n bytes, refusing to pass GCM's limit.
func (s *Stream) advance(n int) {
	if uint64(n) > maxDataLen-s.dataLen {
		panic("gcm: message exceeds 2^32-2 blocks")
	}
	s.dataLen += uint64(n)
}

//simlint:hotpath
func (s *Stream) transform(dst, src []byte, srcIsCiphertext bool) {
	if len(dst) < len(src) {
		panic("gcm: dst shorter than src")
	}
	if s.ks == nil && (srcIsCiphertext || s.dir == Open) {
		// An Open stream's first call makes its CTR; a Seal stream handed
		// ciphertext keeps one from here on.
		s.seek()
	}
	off := s.dataLen
	s.advance(len(src))
	switch {
	case len(src) == 0:
	case s.ks == nil:
		s.seal(dst, src, off)
	case srcIsCiphertext:
		// Authenticate ciphertext before transforming (src may alias dst).
		s.ghashUpdate(src)
		s.ks.XORKeyStream(dst, src)
	default:
		s.ks.XORKeyStream(dst, src)
		s.ghashUpdate(dst[:len(src)])
	}
}

// seal is transform for a Seal stream without a CTR: src starts at byte
// off of the message. The head finishes the keystream block the last call
// began, the whole blocks after it go through sealRun, and what is left —
// the tail, and the last whole block when dst has no spare capacity for
// the tag — takes a keystream block at a time.
//
//simlint:hotpath
func (s *Stream) seal(dst, src []byte, off uint64) {
	sc := scratchPool.Get().(*scratch)
	ks := sc[scKey : scKey+blockSize]
	head := 0
	if r := int(off % blockSize); r > 0 {
		head = min(blockSize-r, len(src))
		s.keyBlock(ks, uint32(2+off/blockSize))
		subtle.XORBytes(dst[:head], src[:head], ks[r:])
	}
	whole := (len(src) - head) &^ (blockSize - 1)
	if cap(dst)-head-whole < TagSize {
		whole = max(whole-blockSize, 0)
	}
	absorbed := 0
	if whole > 0 {
		s.bufLen += copy(s.buf[s.bufLen:], dst[:head])
		s.sealRun(sc, dst[head:], src[head:head+whole], off+uint64(head))
		absorbed = head + whole
	}
	for n := head + whole; n < len(src); {
		o := off + uint64(n)
		r := int(o % blockSize)
		k := min(blockSize-r, len(src)-n)
		s.keyBlock(ks, uint32(2+o/blockSize))
		subtle.XORBytes(dst[n:n+k], src[n:n+k], ks[r:])
		n += k
	}
	scratchPool.Put(sc)
	s.ghashUpdate(dst[absorbed:len(src)])
}

// sealRun encrypts src, whole blocks from the block-aligned message offset
// off, into dst and absorbs them in one Seal (see Stream); cap(dst) ≥
// len(src)+TagSize. A full partial block is the block the call's head
// completed, X, and then sc's keystream block is E(K, J0′), J0′ being
// that block's counter.
//
//simlint:hotpath
func (s *Stream) sealRun(sc *scratch, dst, src []byte, off uint64) {
	c := s.c
	ek := sc[scKey : scKey+blockSize]
	j0 := 1 + uint32(off/blockSize)
	aad := sc[scAAD : scAAD+blockSize]
	if s.bufLen == blockSize {
		aad = sc[scAAD : scAAD+2*blockSize]
		copy(aad[blockSize:], s.buf[:])
		s.bufLen = 0
	} else {
		s.keyBlock(ek, j0)
	}
	binary.BigEndian.PutUint32(s.ctr[12:], j0)
	store(sc[scNonce:], c.mulInv(gcmAdd(c.mulInv(load(s.ctr[:])), fieldElement{0, 8 * blockSize})))
	store(aad, c.mulInv(s.y))
	n := len(src)
	saved := sc[scSaved:scEnd]
	copy(saved, dst[n:n+TagSize])
	if &dst[0] != &src[0] {
		copy(dst[:n], src)
	}
	c.sealer.Seal(dst[:0], sc[scNonce:scAAD], dst[:n], aad)
	tag := load(dst[n:])
	copy(dst[n:n+TagSize], saved)
	s.y = c.mulInv(gcmAdd(tag, load(ek)))
	s.y.low ^= uint64(len(aad)) * 8
	s.y.high ^= uint64(n) * 8
}

// Tag finalizes the message and returns the 16-byte authentication tag.
// The stream must not be updated afterwards.
func (s *Stream) Tag() [TagSize]byte {
	var lenBlock [blockSize]byte
	binary.BigEndian.PutUint64(lenBlock[:8], s.aadLen*8)
	binary.BigEndian.PutUint64(lenBlock[8:], s.dataLen*8)
	s.ghashFlushPad(lenBlock[:])
	var tag [TagSize]byte
	store(tag[:], s.y)
	for i := range tag {
		tag[i] ^= s.tagMask[i]
	}
	return tag
}

// Verify finalizes the message and compares the computed tag against want
// in constant time.
func (s *Stream) Verify(want []byte) bool {
	tag := s.Tag()
	return len(want) == TagSize && subtle.ConstantTimeCompare(tag[:], want) == 1
}

// Processed returns how many payload bytes the stream has consumed.
func (s *Stream) Processed() uint64 { return s.dataLen }
