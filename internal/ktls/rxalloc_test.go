package ktls

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/gcm"
	"repro/internal/l5p"
	"repro/internal/meta"
	"repro/internal/tcpip"
)

// TestSoftwareDecryptNoAlloc: a record the NIC did not decrypt is opened in
// place in the Conn's record buffer, and a partially decrypted one is
// rebuilt into the same buffer and opened by the Conn's own GCM stream, so
// neither allocates per record. The plaintext handed to OnPlain is the
// record's, and the received chunks are left as they came.
func TestSoftwareDecryptNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key := make([]byte, 16)
	rng.Read(key)
	var iv [gcm.NonceSize]byte
	iv[0] = 9
	rxC, err := gcm.NewCached(key)
	if err != nil {
		t.Fatal(err)
	}
	model := cycles.DefaultModel()
	c := &Conn{cfg: Config{Key: key, RxIV: iv}, model: &model, ledger: &cycles.Ledger{},
		cipher: rxC, asm: l5p.Assembler{Spares: new(tcpip.Spares)}}
	body := make([]byte, 16<<10)
	rng.Read(body)
	sealed := sealReference(t, key, iv, 0, body)
	opened := bytes.Clone(sealed) // what the NIC leaves after decrypting a packet
	copy(opened[HeaderLen:], body)
	got := make([]byte, 0, len(body))
	c.OnPlain = func(pc PlainChunk) { got = append(got, pc.Data...) }

	for _, tc := range []struct {
		name      string
		nicOpened func(i int) bool // which 1448-byte packets the NIC decrypted
	}{
		{"software", func(int) bool { return false }},
		{"partial", func(i int) bool { return i%3 == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var chunks []tcpip.Chunk
			for i, off := 0, 0; off < len(sealed); i, off = i+1, off+1448 {
				end := min(off+1448, len(sealed))
				ch := tcpip.Chunk{Seq: uint32(off), Data: bytes.Clone(sealed[off:end])}
				if tc.nicOpened(i) {
					ch.Data, ch.Flags = bytes.Clone(opened[off:end]), meta.TLSDecrypted
				}
				chunks = append(chunks, ch)
			}
			before := make([][]byte, len(chunks))
			for i, ch := range chunks {
				before[i] = bytes.Clone(ch.Data)
			}
			decrypt := func() {
				got = got[:0]
				if tc.name == "software" {
					c.softwareDecrypt(chunks, len(sealed), len(body))
				} else {
					c.partialFallback(chunks, len(sealed), len(body))
				}
			}
			decrypt()
			if !bytes.Equal(got, body) || c.Stats.AuthFailures != 0 {
				t.Fatalf("plaintext differs (%d of %d bytes), %d auth failures", len(got), len(body), c.Stats.AuthFailures)
			}
			for i, ch := range chunks {
				if !bytes.Equal(ch.Data, before[i]) {
					t.Fatalf("chunk %d changed: decryption must not write into received bytes", i)
				}
			}
			if raceEnabled {
				return
			}
			if n := testing.AllocsPerRun(50, decrypt); n != 0 {
				t.Errorf("%v allocations per record, want 0", n)
			}
		})
	}
}
