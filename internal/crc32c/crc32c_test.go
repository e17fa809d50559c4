package crc32c

import (
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownVectors(t *testing.T) {
	// Vectors from RFC 3720 appendix B.4 / common CRC32C test suites.
	cases := []struct {
		name string
		in   []byte
		want uint32
	}{
		{"empty", nil, 0x00000000},
		{"123456789", []byte("123456789"), 0xE3069283},
		{"32 zeros", make([]byte, 32), 0x8A9136AA},
		{"32 ones", bytesOf(0xFF, 32), 0x62A8AB43},
		{"ascending", ascending(32), 0x46DD794E},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Checksum(c.in); got != c.want {
				t.Errorf("Checksum(%q) = %#08x, want %#08x", c.in, got, c.want)
			}
		})
	}
}

func bytesOf(v byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = v
	}
	return b
}

func ascending(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestMatchesStdlib(t *testing.T) {
	// hash/crc32 recognises the Castagnoli table by identity and only then
	// uses the CRC instructions; a copy of the table takes its portable
	// table-driven loop. The two must agree.
	portable := *castagnoli
	f := func(data []byte) bool {
		return Checksum(data) == crc32.Checksum(data, &portable)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVariantsAgree(t *testing.T) {
	f := func(data []byte, seed uint32) bool {
		return Update(seed, data) == UpdateBitwise(seed, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// quick's slices are short; the instruction path switches to
	// interleaved streams on long buffers, so hold those to the oracle too.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1448, 4096 + 7, 64 << 10} {
		data := make([]byte, n)
		rng.Read(data)
		if seed := rng.Uint32(); !f(data, seed) {
			t.Errorf("Update and UpdateBitwise differ on %d bytes", n)
		}
	}
}

func TestIncrementalEqualsOneShot(t *testing.T) {
	f := func(a, b, c []byte) bool {
		all := append(append(append([]byte(nil), a...), b...), c...)
		crc := Update(Update(Update(0, a), b), c)
		return crc == Checksum(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalArbitrarySplits(t *testing.T) {
	// The offload must resume the CRC at any byte boundary (§3.2): check
	// that splitting a buffer at every position yields the same digest.
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 257)
	rng.Read(data)
	want := Checksum(data)
	for i := 0; i <= len(data); i++ {
		got := Update(Update(0, data[:i]), data[i:])
		if got != want {
			t.Fatalf("split at %d: got %#08x, want %#08x", i, got, want)
		}
	}
}

func BenchmarkChecksum(b *testing.B) {
	benchChecksum(b, Update)
}

func BenchmarkChecksumBitwise(b *testing.B) {
	benchChecksum(b, UpdateBitwise)
}

func benchChecksum(b *testing.B, f func(uint32, []byte) uint32) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink = f(sink, data)
	}
	_ = sink
}
