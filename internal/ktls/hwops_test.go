package ktls

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/gcm"
	"repro/internal/offload"
)

// buildRecordStream produces the wire bytes software would hand the NIC
// with transmit offload on: headers + plaintext bodies + zeroed ICVs.
func buildRecordStream(bodies [][]byte) []byte {
	var out []byte
	for _, b := range bodies {
		rec := make([]byte, HeaderLen+len(b)+TagLen)
		PutHeader(rec, len(b))
		copy(rec[HeaderLen:], b)
		out = append(out, rec...)
	}
	return out
}

// sealReference computes the expected on-wire record with stdlib GCM.
func sealReference(t *testing.T, key []byte, iv [12]byte, seq uint64, body []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, HeaderLen)
	PutHeader(hdr, len(body))
	nonce := RecordNonce(iv, seq)
	return append(hdr, aead.Seal(nil, nonce[:], body, hdr)...)
}

func hwFor(t *testing.T, key []byte, iv [12]byte) *HW {
	t.Helper()
	model := cycles.DefaultModel()
	hw, err := NewHW(key, iv, &model, &cycles.Ledger{})
	if err != nil {
		t.Fatal(err)
	}
	return hw
}

// TestTxOpsMatchesStdlibGCM drives the transmit engine packet by packet
// over dummy-ICV records and checks the output equals one-shot stdlib GCM.
func TestTxOpsMatchesStdlibGCM(t *testing.T) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(key)
	var iv [12]byte
	iv[3] = 9

	rng := rand.New(rand.NewSource(2))
	bodies := make([][]byte, 5)
	for i := range bodies {
		bodies[i] = make([]byte, 1+rng.Intn(4000))
		rng.Read(bodies[i])
	}
	stream := buildRecordStream(bodies)

	e := offload.NewTxEngine(NewTxOps(hwFor(t, key, iv)), nil, 1000)
	var outWire []byte
	for off := 0; off < len(stream); {
		n := 1 + rng.Intn(1400)
		if off+n > len(stream) {
			n = len(stream) - off
		}
		pkt := append([]byte(nil), stream[off:off+n]...)
		if !e.Process(1000+uint32(off), pkt) {
			t.Fatal("in-seq tx not processed")
		}
		outWire = append(outWire, pkt...)
		off += n
	}

	var want []byte
	for i, b := range bodies {
		want = append(want, sealReference(t, key, iv, uint64(i), b)...)
	}
	if !bytes.Equal(outWire, want) {
		t.Fatal("NIC transmit output differs from stdlib GCM reference")
	}
}

// TestRxOpsDecryptsStdlibRecords feeds stdlib-sealed records through the
// receive engine and checks plaintext and verdicts.
func TestRxOpsDecryptsStdlibRecords(t *testing.T) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(3)).Read(key)
	var iv [12]byte
	iv[5] = 7

	rng := rand.New(rand.NewSource(4))
	var wire []byte
	var want []byte
	for i := 0; i < 4; i++ {
		body := make([]byte, 1+rng.Intn(3000))
		rng.Read(body)
		want = append(want, body...)
		wire = append(wire, sealReference(t, key, iv, uint64(i), body)...)
	}

	e := offload.NewRxEngine(NewRxOps(hwFor(t, key, iv), nil), 5000, nil)
	buf := append([]byte(nil), wire...)
	var got []byte
	for off := 0; off < len(buf); {
		n := 1 + rng.Intn(1400)
		if off+n > len(buf) {
			n = len(buf) - off
		}
		flags := e.Process(5000+uint32(off), buf[off:off+n], false)
		if !flags.Has(fullRxFlags) {
			t.Fatalf("packet at %d: flags %v", off, flags)
		}
		off += n
	}
	// Extract the decrypted bodies from the in-place transformed buffer.
	off := 0
	for off < len(buf) {
		layout, ok := ParseHeader(buf[off : off+HeaderLen])
		if !ok {
			t.Fatal("header corrupted")
		}
		got = append(got, buf[off+HeaderLen:off+layout.Total-TagLen]...)
		off += layout.Total
	}
	if !bytes.Equal(got, want) {
		t.Fatal("NIC decrypt output differs from the plaintext")
	}
}

// TestRxOpsDetectsCorruptICV flips a tag byte and expects the auth flag
// cleared on the packet completing the record.
func TestRxOpsDetectsCorruptICV(t *testing.T) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(5)).Read(key)
	var iv [12]byte
	body := make([]byte, 500)
	wire := sealReference(t, key, iv, 0, body)
	wire[len(wire)-1] ^= 1

	e := offload.NewRxEngine(NewRxOps(hwFor(t, key, iv), nil), 0, nil)
	flags := e.Process(0, wire, false)
	if flags.Has(fullRxFlags) {
		t.Error("corrupted ICV still flagged auth-ok")
	}
	if !flags.Has(2 /* TLSDecrypted */) {
		t.Error("packet should still be marked decrypted")
	}
}

// TestStreamVsOneShotEquivalence cross-checks the incremental gcm package
// against the one-shot reference through the TLS record construction.
func TestStreamVsOneShotEquivalence(t *testing.T) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(6)).Read(key)
	var iv [12]byte
	body := make([]byte, 2000)
	rand.New(rand.NewSource(7)).Read(body)

	hdr := make([]byte, HeaderLen)
	PutHeader(hdr, len(body))
	nonce := RecordNonce(iv, 3)
	c, _ := gcm.NewCached(key)
	s := c.NewStream(gcm.Seal, nonce[:], hdr)
	ct := make([]byte, len(body))
	s.Update(ct, body)
	tag := s.Tag()

	want := sealReference(t, key, iv, 3, body)
	if !bytes.Equal(append(append(append([]byte(nil), hdr...), ct...), tag[:]...), want) {
		t.Fatal("record construction diverges from stdlib")
	}
}

// TestOpsOutsideMessagePanic pins the programmer-error assert: the ops hold
// their gcm.Stream by value, so "no message in flight" is an explicit flag,
// and touching the stream without one panics with a message instead of
// running a stale record's keystream.
func TestOpsOutsideMessagePanic(t *testing.T) {
	hw := hwFor(t, make([]byte, 16), [12]byte{})
	hdr := make([]byte, HeaderLen)
	PutHeader(hdr, 64)
	layout, _ := ParseHeader(hdr)
	body := make([]byte, 64)

	tx, rx := NewTxOps(hw), NewRxOps(hw, nil)
	calls := map[string]func(){
		"TxOps.Body":       func() { tx.Body(0, body, 0) },
		"TxOps.Trailer":    func() { tx.Trailer(0, body[:TagLen], 0) },
		"TxOps.ReplayBody": func() { tx.ReplayBody(body, 0) },
		"RxOps.Body":       func() { rx.Body(0, body, 0) },
	}
	expectPanics := func(when string) {
		t.Helper()
		for name, call := range calls {
			func() {
				defer func() {
					if got, want := recover(), "ktls: "+name+" outside a message"; got != want {
						t.Errorf("%s %s: recovered %v, want %q", name, when, got, want)
					}
				}()
				call()
			}()
		}
	}
	expectPanics("before BeginMessage")

	begin := func() {
		tx.BeginMessage(layout, hdr, 0)
		rx.BeginMessage(layout, hdr, 0)
	}
	begin()
	for _, call := range calls {
		call() // live: no panic
	}
	tx.EndMessage()
	rx.EndMessage()
	expectPanics("after EndMessage")

	begin()
	tx.AbortMessage()
	rx.AbortMessage()
	expectPanics("after AbortMessage")
}
