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
// its partial block. Producing the bytes is host overhead, so the CTR half
// runs on the standard library's AES-CTR (multi-block AES-NI / ARMv8
// assembly since Go 1.24) seeked to an explicit counter; only GHASH is
// computed here, by byte-position table multiplication in GF(2^128),
// because the standard library exposes no incremental GHASH. The package
// tests and FuzzStreamVsAEAD verify byte-for-byte equality with
// crypto/cipher's GCM.
package gcm

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
)

// cipherCache memoizes Ciphers by key: experiments run thousands of flows
// sharing session keys, and each Cipher carries 64 KiB of GHASH tables.
var (
	cacheMu     sync.Mutex
	cipherCache = make(map[string]*Cipher)
)

// NewCached returns a Cipher for the key, reusing a previously built one.
// Ciphers are stateless per message, so sharing is safe.
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

// aeadCache memoizes whole-message AEADs by key, alongside cipherCache.
var aeadCache = make(map[string]cipher.AEAD)

// AEADCached returns the standard library's AES-GCM AEAD for the key.
// It produces byte-identical output to a Stream driven over the whole
// message (the package tests assert equality), but crypto/cipher also
// reaches the carryless-multiply instructions the Stream's byte-table
// GHASH cannot. Host software uses it for whole-record seal/open, while the
// incremental Stream remains the model of the NIC's packet-by-packet
// engines and the partial-record fallback.
func AEADCached(key []byte) (cipher.AEAD, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if a, ok := aeadCache[string(key)]; ok {
		return a, nil
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	a, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	aeadCache[string(key)] = a
	return a, nil
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
)

// fieldElement is an element of GF(2^128) in GCM's reflected bit order:
// low holds bits 0–63 (the first eight bytes, big-endian), high bits 64–127.
type fieldElement struct {
	low, high uint64
}

func gcmAdd(x, y fieldElement) fieldElement {
	return fieldElement{x.low ^ y.low, x.high ^ y.high}
}

// gcmDouble multiplies by the polynomial x in GF(2^128).
func gcmDouble(x fieldElement) fieldElement {
	msbSet := x.high&1 == 1
	var d fieldElement
	d.high = x.high >> 1
	d.high |= x.low << 63
	d.low = x.low >> 1
	if msbSet {
		// Reduce by the GCM polynomial: 1 + x + x² + x⁷ + x¹²⁸.
		d.low ^= 0xe100000000000000
	}
	return d
}

// Cipher is an AES key schedule plus the precomputed GHASH tables. It is
// the static per-connection state of an offload context (the "cipher keys"
// of §4.1); one Cipher serves any number of records/streams.
//
// GHASH uses byte-position tables: byteTable[pos][b] is the field product
// of H with the block that has byte b at position pos and zeros elsewhere.
// Multiplying the accumulator by H is then 16 table lookups — the classic
// 64 KiB software GHASH layout.
type Cipher struct {
	block     cipher.Block
	byteTable [16][256]fieldElement
}

// New builds a Cipher from a 16-, 24-, or 32-byte AES key.
func New(key []byte) (*Cipher, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	c := &Cipher{block: block}
	var h [blockSize]byte
	block.Encrypt(h[:], h[:]) // H = E(K, 0¹²⁸)
	x := fieldElement{
		binary.BigEndian.Uint64(h[:8]),
		binary.BigEndian.Uint64(h[8:]),
	}
	// Bit k of the block (MSB of byte 0 is bit 0) is the coefficient of
	// x^k; multiplying by x is gcmDouble in this reflected layout.
	var bitElem [128]fieldElement
	bitElem[0] = x
	for k := 1; k < 128; k++ {
		bitElem[k] = gcmDouble(bitElem[k-1])
	}
	for pos := 0; pos < 16; pos++ {
		for b := 1; b < 256; b++ {
			// Build incrementally from b with its lowest set bit cleared;
			// in-byte bit index j counts from the MSB.
			lsb := b & -b
			j := 7 - trailingZeros8(lsb)
			c.byteTable[pos][b] = gcmAdd(c.byteTable[pos][b&(b-1)], bitElem[pos*8+j])
		}
	}
	return c, nil
}

func trailingZeros8(b int) int {
	n := 0
	for b&1 == 0 {
		b >>= 1
		n++
	}
	return n
}

// ghashBlocks folds a run of whole blocks into the accumulator:
// y = (y ⊕ block)·H for each. The accumulator stays in locals across the
// run, and each multiply is fully unrolled: every table index is a
// constant-shift byte extraction, so the compiler drops the bounds checks
// and the 16 loads pipeline instead of serializing behind loop-carried
// shifts. len(blocks) must be a multiple of 16.
func (c *Cipher) ghashBlocks(y fieldElement, blocks []byte) fieldElement {
	t := &c.byteTable
	lo, hi := y.low, y.high
	for ; len(blocks) >= blockSize; blocks = blocks[blockSize:] {
		lo ^= binary.BigEndian.Uint64(blocks[:8])
		hi ^= binary.BigEndian.Uint64(blocks[8:16])
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
		lo = e0.low ^ e1.low ^ e2.low ^ e3.low ^ e4.low ^ e5.low ^ e6.low ^ e7.low ^
			e8.low ^ e9.low ^ e10.low ^ e11.low ^ e12.low ^ e13.low ^ e14.low ^ e15.low
		hi = e0.high ^ e1.high ^ e2.high ^ e3.high ^ e4.high ^ e5.high ^ e6.high ^ e7.high ^
			e8.high ^ e9.high ^ e10.high ^ e11.high ^ e12.high ^ e13.high ^ e14.high ^ e15.high
	}
	return fieldElement{lo, hi}
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
type Stream struct {
	c   *Cipher
	dir Direction

	// CTR state: the stdlib AES-CTR, positioned at byte dataLen of the
	// message. ctr is the counter block it was last seeked to (J0 with
	// the block offset added); it lives here so that the slice handed to
	// cipher.NewCTR does not escape as an allocation of its own.
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
// the start-of-message state. The one allocation left is the stdlib's CTR
// object.
func (c *Cipher) InitStream(s *Stream, dir Direction, nonce, aad []byte) {
	if len(nonce) != NonceSize {
		panic(fmt.Sprintf("gcm: nonce length %d, want %d", len(nonce), NonceSize))
	}
	*s = Stream{c: c, dir: dir, aadLen: uint64(len(aad))}
	copy(s.ctr[:], nonce)
	s.ctr[blockSize-1] = 1 // J0
	c.block.Encrypt(s.tagMask[:], s.ctr[:])
	s.seek()
	s.ghashUpdate(aad)
	s.ghashFlushPad()
}

// seek positions the keystream at byte dataLen of the message: a CTR over
// counter block J0+1+⌊dataLen/16⌋ with dataLen%16 bytes discarded.
func (s *Stream) seek() {
	binary.BigEndian.PutUint32(s.ctr[12:], uint32(2+s.dataLen/blockSize))
	s.ks = cipher.NewCTR(s.c.block, s.ctr[:])
	if rem := s.dataLen % blockSize; rem > 0 {
		// Only Skip lands mid-block, and Skip abandons authentication, so
		// the GHASH partial-block buffer is free to take the discard.
		s.ks.XORKeyStream(s.buf[:rem], s.buf[:rem])
	}
}

func (s *Stream) ghashUpdate(data []byte) {
	if s.bufLen > 0 {
		n := copy(s.buf[s.bufLen:], data)
		s.bufLen += n
		data = data[n:]
		if s.bufLen < blockSize {
			return
		}
		s.y = s.c.ghashBlocks(s.y, s.buf[:])
	}
	whole := len(data) &^ (blockSize - 1)
	s.y = s.c.ghashBlocks(s.y, data[:whole])
	s.bufLen = copy(s.buf[:], data[whole:])
}

// ghashFlushPad zero-pads and absorbs any partial GHASH block (used at the
// AAD/data boundary and before the length block).
func (s *Stream) ghashFlushPad() {
	if s.bufLen == 0 {
		return
	}
	clear(s.buf[s.bufLen:])
	s.y = s.c.ghashBlocks(s.y, s.buf[:])
	s.bufLen = 0
}

// Update processes the next len(src) bytes of the message into dst (which
// must be at least as long as src and may alias it exactly). For Seal, src
// is plaintext and dst ciphertext; for Open, the reverse. Update may be
// called any number of times with arbitrary lengths — this is the per-packet
// entry point.
func (s *Stream) Update(dst, src []byte) {
	s.transform(dst, src, s.dir == Open)
}

// Transform is Update with an explicit per-call statement of which side of
// the XOR src is on: srcIsCiphertext=true behaves like Open (authenticate
// src, output plaintext), false like Seal (output ciphertext, authenticate
// it). kTLS software uses this for the partial-record fallback of §5.2: a
// record whose packets are a mix of NIC-decrypted plaintext and raw
// ciphertext is authenticated in one pass, re-encrypting the NIC-decrypted
// ranges to recover the ciphertext the GHASH needs.
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
	s.seek()
}

// advance moves dataLen forward by n bytes, refusing to pass GCM's limit.
func (s *Stream) advance(n int) {
	if uint64(n) > maxDataLen-s.dataLen {
		panic("gcm: message exceeds 2^32-2 blocks")
	}
	s.dataLen += uint64(n)
}

func (s *Stream) transform(dst, src []byte, srcIsCiphertext bool) {
	if len(dst) < len(src) {
		panic("gcm: dst shorter than src")
	}
	s.advance(len(src))
	if srcIsCiphertext {
		// Authenticate ciphertext before transforming (src may alias dst).
		s.ghashUpdate(src)
		s.ks.XORKeyStream(dst, src)
	} else {
		s.ks.XORKeyStream(dst, src)
		s.ghashUpdate(dst[:len(src)])
	}
}

// Tag finalizes the message and returns the 16-byte authentication tag.
// The stream must not be updated afterwards.
func (s *Stream) Tag() [TagSize]byte {
	s.ghashFlushPad()
	var lenBlock [blockSize]byte
	binary.BigEndian.PutUint64(lenBlock[:8], s.aadLen*8)
	binary.BigEndian.PutUint64(lenBlock[8:], s.dataLen*8)
	s.y = s.c.ghashBlocks(s.y, lenBlock[:])
	var tag [TagSize]byte
	binary.BigEndian.PutUint64(tag[:8], s.y.low)
	binary.BigEndian.PutUint64(tag[8:], s.y.high)
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
