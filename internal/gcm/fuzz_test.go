package gcm

import (
	"bytes"
	"math/rand"
	"testing"
)

// pieceLen maps a schedule byte to the sizes the engines actually see:
// empty, sub-block, exactly one block, one MSS, odd multi-block runs, and a
// whole record plus an odd tail, which chains GHASH over several scratch
// runs.
func pieceLen(b byte) int {
	switch b % 6 {
	case 0:
		return 0
	case 1:
		return 1 + int(b/6)%15
	case 2:
		return blockSize
	case 3:
		return 1448
	case 4:
		return 17 + int(b/6)*37
	default:
		return 16<<10 + 1 + 2*(int(b/6)%8)
	}
}

// sentinel fills the spare capacity FuzzStreamVsAEAD hands a Stream.
const sentinel = 0xA5

// FuzzStreamVsAEAD is the differential test against crypto/cipher's GCM.
// sched is a list of (op, size) byte pairs cutting one message into pieces;
// each piece goes through Update or Transform, in place or not, in either
// direction, into a dst with or without spare capacity, and every output
// byte and the tag must equal the one-shot AEAD's, the spare capacity come
// back as it was handed over. Then the same pieces are decrypted again
// after a Skip to a fuzzer-chosen offset, where only the plaintext can be
// compared.
func FuzzStreamVsAEAD(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 3, 2, 3, 3, 3})
	f.Add(int64(2), []byte{0, 0, 1, 6, 2, 2, 3, 11, 0, 4, 1, 9})
	f.Add(int64(3), []byte{2, 1, 3, 1, 2, 1, 3, 1, 0, 2, 0, 14, 1, 251})
	f.Add(int64(4), []byte{1, 2, 1, 2, 1, 2})
	f.Add(int64(5), []byte{})
	f.Add(int64(6), []byte{0, 5, 1, 3, 6, 11, 2, 4})
	// A Seal stream sealing frames: an MSS, one byte, an MSS in place
	// across the partial block, a record, a multi-block piece in place
	// through Transform.
	f.Add(int64(10), []byte{8, 3, 8, 1, 12, 3, 8, 5, 14, 4})
	// A Seal stream handed ciphertext mid-block, which switches it to a
	// CTR, then plaintext again.
	f.Add(int64(8), []byte{8, 1, 11, 3, 8, 4, 12, 3})
	f.Fuzz(func(t *testing.T, seed int64, sched []byte) {
		if len(sched) > 48 {
			sched = sched[:48]
		}
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, 16+8*rng.Intn(3))
		rng.Read(key)
		nonce := make([]byte, NonceSize)
		rng.Read(nonce)
		aad := make([]byte, rng.Intn(40))
		rng.Read(aad)
		total := 0
		for i := 1; i < len(sched); i += 2 {
			total += pieceLen(sched[i])
		}
		pt := make([]byte, total)
		rng.Read(pt)
		sealed := stdSeal(key, nonce, pt, aad)
		ct, tag := sealed[:total], sealed[total:]

		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		var s Stream
		c.InitStream(&s, Direction(seed&1), nonce, aad)
		off := 0
		for i := 1; i < len(sched); i += 2 {
			n := pieceLen(sched[i])
			op := sched[i-1]
			// Bit 0: which side of the XOR the input is on (for Update,
			// the stream's own direction decides). Bit 1: Update or
			// Transform. Bit 2: in place. Bit 3: dst has TagSize bytes of
			// spare capacity holding sentinels, or none.
			ctIn := op&1 == 1
			if op&2 == 0 {
				ctIn = s.dir == Open
			}
			in, want := pt[off:off+n], ct[off:off+n]
			if ctIn {
				in, want = want, in
			}
			spare := 0
			if op&8 != 0 {
				spare = TagSize
			}
			dst := make([]byte, n, n+spare)
			tail := dst[n : n+spare]
			for i := range tail {
				tail[i] = sentinel
			}
			src := in
			if op&4 != 0 {
				copy(dst, in)
				src = dst
			}
			if op&2 == 0 {
				s.Update(dst, src)
			} else {
				s.Transform(dst, src, ctIn)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("piece at %d+%d (op %#x): output differs from AEAD", off, n, op)
			}
			for i, b := range tail {
				if b != sentinel {
					t.Fatalf("piece at %d+%d (op %#x): spare capacity byte %d is %#x after the call", off, n, op, i, b)
				}
			}
			off += n
		}
		if got := s.Tag(); !bytes.Equal(got[:], tag) {
			t.Fatalf("tag %x, AEAD's %x", got, tag)
		}

		// Mid-record resume: skip to an arbitrary offset, in two steps,
		// then decrypt the rest along the same piece boundaries.
		skip := 0
		if total > 0 {
			skip = rng.Intn(total + 1)
		}
		c.InitStream(&s, Open, nonce, aad)
		first := rng.Intn(skip + 1)
		s.Skip(first)
		s.Skip(skip - first)
		off = 0
		for i := 1; i < len(sched); i += 2 {
			n := pieceLen(sched[i])
			lo := max(off, skip)
			off += n
			if lo >= off {
				continue
			}
			got := make([]byte, off-lo)
			s.Update(got, ct[lo:off])
			if !bytes.Equal(got, pt[lo:off]) {
				t.Fatalf("after Skip(%d): bytes [%d,%d) differ", skip, lo, off)
			}
		}
		if s.Processed() != uint64(total) {
			t.Fatalf("Processed() = %d, want %d", s.Processed(), total)
		}
	})
}
