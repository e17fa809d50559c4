package gcm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func stdSeal(key, nonce, plaintext, aad []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead.Seal(nil, nonce, plaintext, aad)
}

func key16(seed int64) []byte {
	k := make([]byte, 16)
	rand.New(rand.NewSource(seed)).Read(k)
	return k
}

func TestSealMatchesStdlib(t *testing.T) {
	f := func(plaintext, aad []byte, nonceSeed int64, at uint16) bool {
		key := key16(1)
		nonce := make([]byte, NonceSize)
		rand.New(rand.NewSource(nonceSeed)).Read(nonce)

		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		want := stdSeal(key, nonce, plaintext, aad)

		// One call into a dst with no spare capacity.
		s := c.NewStream(Seal, nonce, aad)
		ct := make([]byte, len(plaintext))
		s.Update(ct, plaintext)
		tag := s.Tag()
		ok := bytes.Equal(ct, want[:len(plaintext)]) && bytes.Equal(tag[:], want[len(plaintext):])

		// In place, in two calls split anywhere, each with room for the
		// fused pass's tag after it as a frame has.
		split := int(at) % (len(plaintext) + 1)
		buf := append(make([]byte, 0, len(plaintext)+TagSize), plaintext...)
		s = c.NewStream(Seal, nonce, aad)
		s.Update(buf[:split], buf[:split])
		s.Update(buf[split:], buf[split:])
		tag = s.Tag()
		return ok && bytes.Equal(buf, want[:len(plaintext)]) && bytes.Equal(tag[:], want[len(plaintext):])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeySizes(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		key := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(key)
		nonce := make([]byte, NonceSize)
		pt := []byte("the quick brown fox")
		aad := []byte("aad")
		c, err := New(key)
		if err != nil {
			t.Fatalf("key size %d: %v", n, err)
		}
		s := c.NewStream(Seal, nonce, aad)
		ct := make([]byte, len(pt))
		s.Update(ct, pt)
		tag := s.Tag()
		want := stdSeal(key, nonce, pt, aad)
		if !bytes.Equal(append(ct, tag[:]...), want) {
			t.Errorf("key size %d: mismatch with stdlib", n)
		}
	}
	if _, err := New(make([]byte, 15)); err == nil {
		t.Error("New accepted a 15-byte key")
	}
}

func TestIncrementalAnySplit(t *testing.T) {
	// Splitting the message at every boundary must give identical
	// ciphertext and tag — the property that lets the NIC process a record
	// packet by packet.
	key := key16(2)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 100)
	rand.New(rand.NewSource(3)).Read(pt)
	c, _ := New(key)
	want := stdSeal(key, nonce, pt, nil)

	for i := 0; i <= len(pt); i++ {
		s := c.NewStream(Seal, nonce, nil)
		ct := make([]byte, len(pt))
		s.Update(ct[:i], pt[:i])
		s.Update(ct[i:], pt[i:])
		tag := s.Tag()
		if !bytes.Equal(ct, want[:len(pt)]) || !bytes.Equal(tag[:], want[len(pt):]) {
			t.Fatalf("split at %d diverges from one-shot", i)
		}
	}
}

func TestIncrementalRandomChunks(t *testing.T) {
	f := func(chunkSizes []uint8, seed int64) bool {
		key := key16(4)
		nonce := make([]byte, NonceSize)
		rng := rand.New(rand.NewSource(seed))
		var pt []byte
		for _, n := range chunkSizes {
			chunk := make([]byte, int(n))
			rng.Read(chunk)
			pt = append(pt, chunk...)
		}
		c, _ := New(key)
		s := c.NewStream(Seal, nonce, nil)
		ct := make([]byte, 0, len(pt))
		off := 0
		for _, n := range chunkSizes {
			out := make([]byte, int(n))
			s.Update(out, pt[off:off+int(n)])
			ct = append(ct, out...)
			off += int(n)
		}
		tag := s.Tag()
		want := stdSeal(key, nonce, pt, nil)
		return bytes.Equal(ct, want[:len(pt)]) && bytes.Equal(tag[:], want[len(pt):])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	key := key16(5)
	nonce := make([]byte, NonceSize)
	nonce[11] = 9
	aad := []byte("record header")
	pt := make([]byte, 5000)
	rand.New(rand.NewSource(6)).Read(pt)
	c, _ := New(key)

	s := c.NewStream(Seal, nonce, aad)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)
	tag := s.Tag()

	// Open in uneven chunks.
	o := c.NewStream(Open, nonce, aad)
	got := make([]byte, len(ct))
	for off := 0; off < len(ct); {
		n := 1 + (off*7)%1337
		if off+n > len(ct) {
			n = len(ct) - off
		}
		o.Update(got[off:off+n], ct[off:off+n])
		off += n
	}
	if !bytes.Equal(got, pt) {
		t.Error("decryption mismatch")
	}
	if !o.Verify(tag[:]) {
		t.Error("tag verification failed on valid data")
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	key := key16(7)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 256)
	c, _ := New(key)
	s := c.NewStream(Seal, nonce, nil)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)
	tag := s.Tag()

	for _, flip := range []int{0, 100, 255} {
		bad := append([]byte(nil), ct...)
		bad[flip] ^= 1
		o := c.NewStream(Open, nonce, nil)
		out := make([]byte, len(bad))
		o.Update(out, bad)
		if o.Verify(tag[:]) {
			t.Errorf("tampered byte %d passed verification", flip)
		}
	}
	// Tampered tag must fail too.
	o := c.NewStream(Open, nonce, nil)
	out := make([]byte, len(ct))
	o.Update(out, ct)
	badTag := append([]byte(nil), tag[:]...)
	badTag[0] ^= 1
	if o.Verify(badTag) {
		t.Error("tampered tag passed verification")
	}
}

func TestInPlaceUpdate(t *testing.T) {
	key := key16(8)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 1000)
	rand.New(rand.NewSource(9)).Read(pt)
	buf := append([]byte(nil), pt...)
	c, _ := New(key)

	s := c.NewStream(Seal, nonce, nil)
	s.Update(buf, buf) // encrypt in place, like the NIC does
	sealTag := s.Tag()
	want := stdSeal(key, nonce, pt, nil)
	if !bytes.Equal(buf, want[:len(pt)]) {
		t.Fatal("in-place encryption mismatch")
	}

	o := c.NewStream(Open, nonce, nil)
	o.Update(buf, buf) // decrypt in place
	if !bytes.Equal(buf, pt) {
		t.Fatal("in-place decryption mismatch")
	}
	if !o.Verify(sealTag[:]) {
		t.Fatal("in-place verify failed")
	}
}

func TestProcessed(t *testing.T) {
	c, _ := New(key16(12))
	s := c.NewStream(Seal, make([]byte, NonceSize), nil)
	s.Update(make([]byte, 10), make([]byte, 10))
	s.Update(make([]byte, 7), make([]byte, 7))
	if s.Processed() != 17 {
		t.Errorf("Processed() = %d, want 17", s.Processed())
	}
}

func TestStreamNoAlloc(t *testing.T) {
	// The per-packet entry point and the tag allocate nothing, in either
	// direction, with or without spare capacity after dst; starting a
	// record allocates nothing, and opening one makes only the stdlib's CTR
	// object, at its first Update. The flow contexts rely on this: they
	// hold the Stream by value and re-initialise it in place.
	c, _ := New(key16(14))
	nonce := make([]byte, NonceSize)
	aad := []byte("hdr..")
	buf := make([]byte, 16<<10)
	var s Stream
	for _, dir := range []Direction{Seal, Open} {
		c.InitStream(&s, dir, nonce, aad)
		// An MSS, an odd length that moves the pending partial block on
		// every call, and a 16 KiB record with no spare capacity, chained
		// over several scratch runs.
		for _, n := range []int{1448, 1447, 16 << 10} {
			if a := testing.AllocsPerRun(100, func() { s.Update(buf[:n], buf[:n]) }); a != 0 {
				t.Errorf("direction %d: Update(%d bytes) allocates %v per call, want 0", dir, n, a)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _ = s.Tag() }); n != 0 {
			t.Errorf("direction %d: Tag allocates %v per call, want 0", dir, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.InitStream(&s, Seal, nonce, aad) }); n != 0 {
		t.Errorf("InitStream(Seal) allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.InitStream(&s, Open, nonce, aad) }); n != 0 {
		t.Errorf("InitStream(Open) allocates %v per call, want 0", n)
	}
	// A record the receive engine resumes inside (ktls.RxOps.ResumeMessage)
	// skips what it never saw and then decrypts: one CTR, made at the
	// skipped offset.
	resume := func() {
		c.InitStream(&s, Open, nonce, aad)
		s.Skip(1000)
		s.Update(buf[:1448], buf[:1448])
	}
	if n := testing.AllocsPerRun(100, resume); n != 1 {
		t.Errorf("a resumed Open record allocates %v objects, want 1 (its CTR)", n)
	}
}

// ghashRef is the byte-table GHASH the package ran before it moved onto the
// stdlib AEAD: y = (y ⊕ block)·H for each whole block, t being the table
// of H. It is kept as the reference the AEAD-backed path is checked
// against.
func ghashRef(t *mulTable, y fieldElement, blocks []byte) fieldElement {
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

// hashKey returns H = E(K, 0¹²⁸) for the Cipher's key.
func hashKey(c *Cipher) fieldElement {
	var h [blockSize]byte
	c.block.Encrypt(h[:], h[:])
	return load(h[:])
}

// gfMul is the bit-serial field product x·y, independent of any table.
func gfMul(x, y fieldElement) fieldElement {
	var z fieldElement
	for i := 0; i < 128; i++ {
		w := y.low
		if i >= 64 {
			w = y.high
		}
		if w>>(63-i%64)&1 == 1 {
			z = gcmAdd(z, x)
		}
		x = gcmDouble(x)
	}
	return z
}

func randElement(rng *rand.Rand) fieldElement {
	return fieldElement{rng.Uint64(), rng.Uint64()}
}

func TestGHASHMatchesReference(t *testing.T) {
	// Run lengths around the AEAD's 8-block loop (128 bytes) and the
	// scratch run (runLen), with 0–15 bytes already pending in the Stream.
	c, _ := New(key16(30))
	var ref mulTable
	ref.init(hashKey(c))
	rng := rand.New(rand.NewSource(31))
	for _, run := range []int{16, 112, 128, 144, 4080, 4096, 4112, 16<<10 + 16} {
		for pending := 0; pending < blockSize; pending++ {
			tail := (pending*7 + run/16) % blockSize
			msg := make([]byte, run+tail)
			rng.Read(msg)
			y := randElement(rng)
			s := Stream{c: c, y: y, bufLen: pending}
			copy(s.buf[:], msg[:pending])
			s.ghashUpdate(msg[pending:])
			if want := ghashRef(&ref, y, msg[:run]); s.y != want {
				t.Fatalf("run %d, pending %d: y = %x, reference %x", run, pending, s.y, want)
			}
			if s.bufLen != tail || !bytes.Equal(s.buf[:tail], msg[run:]) {
				t.Fatalf("run %d, pending %d: %d bytes left pending, want the %d-byte tail", run, pending, s.bufLen, tail)
			}
		}
	}
}

func TestInverse(t *testing.T) {
	one := fieldElement{1 << 63, 0} // the polynomial 1 in the reflected order
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 200; i++ {
		x := randElement(rng)
		if i == 0 {
			x = one
		}
		if got := gfMul(x, inverse(x)); got != one {
			t.Fatalf("x·x⁻¹ = %x for x = %x", got, x)
		}
	}
	c, _ := New(key16(33))
	h := hashKey(c)
	for i := 0; i < 200; i++ {
		y := randElement(rng)
		if got := c.mulInv(gfMul(y, h)); got != y {
			t.Fatalf("mulInv(y·H) = %x, want y = %x", got, y)
		}
	}
}

func TestSharedCipherConcurrent(t *testing.T) {
	// One cached Cipher serves every goroutine; each drives its own record
	// through per-packet Updates that interleave with the others' on the
	// pooled GHASH scratch, and must still match the one-shot AEAD.
	key := key16(34)
	c, err := NewCached(key)
	if err != nil {
		t.Fatal(err)
	}
	const workers, recLen, piece = 8, 20000, 1447
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			rng := rand.New(rand.NewSource(int64(100 + w)))
			nonce := make([]byte, NonceSize)
			rng.Read(nonce)
			aad := make([]byte, 13)
			rng.Read(aad)
			pt := make([]byte, recLen)
			rng.Read(pt)
			var s Stream
			c.InitStream(&s, Seal, nonce, aad)
			ct := make([]byte, recLen)
			for off := 0; off < recLen; off += piece {
				end := min(off+piece, recLen)
				s.Update(ct[off:end], pt[off:end])
				runtime.Gosched()
			}
			tag := s.Tag()
			if !bytes.Equal(append(ct, tag[:]...), stdSeal(key, nonce, pt, aad)) {
				errs <- fmt.Errorf("worker %d: record differs from the stdlib's Seal", w)
				return
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestBlockLimit(t *testing.T) {
	// GCM allows 2³²−2 blocks per message; the last one is encrypted under
	// counter 0xffffffff, and one byte more must be refused rather than
	// carried into the nonce.
	key := key16(15)
	nonce := make([]byte, NonceSize)
	nonce[3] = 0xff
	c, _ := New(key)
	s := c.NewStream(Open, nonce, nil)
	var limit uint64 = maxDataLen
	s.Skip(int(limit - 40))
	s.Skip(24)
	got := make([]byte, blockSize)
	s.Update(got, got)

	block, _ := aes.NewCipher(key)
	want := make([]byte, blockSize)
	copy(want, nonce)
	copy(want[NonceSize:], []byte{0xff, 0xff, 0xff, 0xff})
	block.Encrypt(want, want)
	if !bytes.Equal(got, want) {
		t.Error("last block's keystream is not E(K, nonce‖0xffffffff)")
	}
	for name, f := range map[string]func(){
		"Update": func() { s.Update(got[:1], got[:1]) },
		"Skip":   func() { s.Skip(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past 2^32-2 blocks did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkSeal16K(b *testing.B) {
	c, _ := New(key16(13))
	nonce := make([]byte, NonceSize)
	buf := make([]byte, 16<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		s := c.NewStream(Seal, nonce, nil)
		s.Update(buf, buf)
		_ = s.Tag()
	}
}

// BenchmarkStreamUpdate is one packet's in-place Update on a live stream,
// at the sizes of the benchmark's gcm.stream_ns_per_byte rows: an Open, and
// a Seal of a payload at a frame's header offset with the TagSize bytes
// after it that a frame's trailer or slack gives, or with none.
func BenchmarkStreamUpdate(b *testing.B) {
	for _, row := range []struct {
		name  string
		dir   Direction
		spare int
	}{{"open", Open, 0}, {"seal", Seal, TagSize}, {"seal-nospare", Seal, 0}} {
		for _, n := range []int{64, 1448, 16384} {
			b.Run(fmt.Sprintf("%s/%d", row.name, n), func(b *testing.B) {
				const hdr = 54 // Ethernet, IPv4 and TCP headers
				c, _ := New(key16(13))
				nonce := make([]byte, NonceSize)
				buf := make([]byte, hdr+n+row.spare)[hdr : hdr+n]
				var s Stream
				c.InitStream(&s, row.dir, nonce, nil)
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if s.Processed() > 1<<30 {
						c.InitStream(&s, row.dir, nonce, nil)
					}
					s.Update(buf, buf)
				}
			})
		}
	}
}

// BenchmarkNew is the per-key cost: key schedule, AEAD, H⁻¹ and its table.
func BenchmarkNew(b *testing.B) {
	key := key16(13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStdlibSeal16K(b *testing.B) {
	block, _ := aes.NewCipher(key16(13))
	aead, _ := cipher.NewGCM(block)
	nonce := make([]byte, NonceSize)
	buf := make([]byte, 16<<10)
	out := make([]byte, 0, len(buf)+16)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		out = aead.Seal(out[:0], nonce, buf, nil)
	}
}

func TestTransformMixed(t *testing.T) {
	// A "partial record": ranges alternate between plaintext (NIC already
	// decrypted) and ciphertext. One mixed pass must produce the full
	// plaintext and a valid tag.
	key := key16(20)
	nonce := make([]byte, NonceSize)
	nonce[0] = 7
	aad := []byte("hdr")
	pt := make([]byte, 3000)
	rand.New(rand.NewSource(21)).Read(pt)
	c, _ := New(key)
	s := c.NewStream(Seal, nonce, aad)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)
	tag := s.Tag()

	// Build the mixed wire view: [0,1000) decrypted, [1000,2200) raw,
	// [2200,3000) decrypted.
	mixed := append([]byte(nil), pt[:1000]...)
	mixed = append(mixed, ct[1000:2200]...)
	mixed = append(mixed, pt[2200:]...)

	o := c.NewStream(Open, nonce, aad)
	out := make([]byte, len(mixed))
	o.Transform(out[:1000], mixed[:1000], false)        // plaintext in
	o.Transform(out[1000:2200], mixed[1000:2200], true) // ciphertext in
	o.Transform(out[2200:], mixed[2200:], false)
	// Plaintext ranges come back re-encrypted (ciphertext); the caller
	// keeps the original plaintext for those ranges.
	if !bytes.Equal(out[1000:2200], pt[1000:2200]) {
		t.Error("ciphertext range did not decrypt")
	}
	if !bytes.Equal(out[:1000], ct[:1000]) || !bytes.Equal(out[2200:], ct[2200:]) {
		t.Error("plaintext ranges did not re-encrypt to original ciphertext")
	}
	if !o.Verify(tag[:]) {
		t.Error("mixed-pass tag verification failed")
	}
}

func TestSkip(t *testing.T) {
	key := key16(22)
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 2000)
	rand.New(rand.NewSource(23)).Read(pt)
	c, _ := New(key)
	s := c.NewStream(Seal, nonce, nil)
	ct := make([]byte, len(pt))
	s.Update(ct, pt)

	// Decrypt only the suffix after skipping a prefix of every length.
	for _, skip := range []int{0, 1, 15, 16, 17, 160, 1999, 2000} {
		o := c.NewStream(Open, nonce, nil)
		o.Skip(skip)
		got := make([]byte, len(ct)-skip)
		o.Update(got, ct[skip:])
		if !bytes.Equal(got, pt[skip:]) {
			t.Errorf("skip %d: suffix decryption mismatch", skip)
		}
	}

	// Skip split across calls equals one skip.
	o1 := c.NewStream(Open, nonce, nil)
	o1.Skip(7)
	o1.Skip(100)
	got := make([]byte, len(ct)-107)
	o1.Update(got, ct[107:])
	if !bytes.Equal(got, pt[107:]) {
		t.Error("split skip mismatch")
	}

	// Skip interleaved with Update.
	o2 := c.NewStream(Open, nonce, nil)
	head := make([]byte, 33)
	o2.Update(head, ct[:33])
	o2.Skip(500)
	tail := make([]byte, len(ct)-533)
	o2.Update(tail, ct[533:])
	if !bytes.Equal(head, pt[:33]) || !bytes.Equal(tail, pt[533:]) {
		t.Error("interleaved skip mismatch")
	}
}
