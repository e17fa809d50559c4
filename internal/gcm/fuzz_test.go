package gcm

import (
	"bytes"
	"fmt"
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

// pieceDst returns the dst a schedule op hands a Stream for the input in:
// with TagSize bytes of spare capacity holding sentinels (op bit 3) or
// none, and for an in-place call (bit 2) holding a copy of in, in which
// case src is dst.
func pieceDst(op byte, in []byte) (dst, src, spare []byte) {
	n := len(in)
	if op&8 != 0 {
		dst = make([]byte, n, n+TagSize)
	} else {
		dst = make([]byte, n)
	}
	spare = dst[n:cap(dst)]
	for i := range spare {
		spare[i] = sentinel
	}
	src = in
	if op&4 != 0 {
		copy(dst, in)
		src = dst
	}
	return dst, src, spare
}

// checkSpare fails unless the call left dst's spare capacity as handed over.
func checkSpare(t *testing.T, spare []byte, what string) {
	t.Helper()
	for i, b := range spare {
		if b != sentinel {
			t.Fatalf("%s: spare capacity byte %d is %#x after the call", what, i, b)
		}
	}
}

// FuzzStreamVsAEAD is the differential test against crypto/cipher's GCM.
// sched is a list of (op, size) byte pairs cutting one message into pieces;
// each piece goes through Update or Transform, in place or not, in either
// direction, into a dst with or without spare capacity, and every output
// byte and the tag must equal the one-shot AEAD's, the spare capacity come
// back as it was handed over. Then the same pieces go through again, by
// the same ops, after a Skip to a fuzzer-chosen offset, where only the
// output can be compared. An odd seed opens, and seed bit 1 picks the
// direction of the resumed pass.
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
	// A Seal stream handed ciphertext mid-block, then plaintext again.
	f.Add(int64(8), []byte{8, 1, 11, 3, 8, 4, 12, 3})
	// An Open stream opening frames with and without spare capacity, in
	// place and not: an MSS, one byte, a record, an odd multi-block run;
	// then an opening resume from mid-record.
	f.Add(int64(11), []byte{8, 3, 12, 1, 12, 5, 0, 3, 4, 4, 8, 2})
	// An Open stream handed plaintext to re-encrypt (the partial
	// fallback's mixed pass) with spare capacity, then a sealing resume.
	f.Add(int64(9), []byte{12, 3, 10, 4, 11, 3, 14, 5, 8, 1})
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
			dst, src, spare := pieceDst(op, in)
			if op&2 == 0 {
				s.Update(dst, src)
			} else {
				s.Transform(dst, src, ctIn)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("piece at %d+%d (op %#x): output differs from AEAD", off, n, op)
			}
			checkSpare(t, spare, fmt.Sprintf("piece at %d+%d (op %#x)", off, n, op))
			off += n
		}
		if got := s.Tag(); !bytes.Equal(got[:], tag) {
			t.Fatalf("tag %x, AEAD's %x", got, tag)
		}

		// Mid-record resume: skip to an arbitrary offset, in two steps,
		// then run the rest along the same piece boundaries.
		skip := 0
		if total > 0 {
			skip = rng.Intn(total + 1)
		}
		c.InitStream(&s, Direction(seed>>1&1), nonce, aad)
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
			op := sched[i-1]
			in, want := pt[lo:off], ct[lo:off]
			if s.dir == Open {
				in, want = want, in
			}
			dst, src, spare := pieceDst(op, in)
			s.Update(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("after Skip(%d): bytes [%d,%d) (op %#x) differ", skip, lo, off, op)
			}
			checkSpare(t, spare, fmt.Sprintf("after Skip(%d): bytes [%d,%d) (op %#x)", skip, lo, off, op))
		}
		if s.Processed() != uint64(total) {
			t.Fatalf("Processed() = %d, want %d", s.Processed(), total)
		}
	})
}
