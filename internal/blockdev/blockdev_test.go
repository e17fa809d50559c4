package blockdev

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
)

// patternRef is the byte-at-a-time definition of the pattern, kept as the
// reference Pattern's word stores are checked against.
func patternRef(lba uint64, off int, dst []byte) {
	var seed [8]byte
	for i := range dst {
		pos := off + i
		if pos%8 == 0 || i == 0 {
			binary.LittleEndian.PutUint64(seed[:], (lba*0x9E3779B97F4A7C15)^uint64(pos/8)*0xBF58476D1CE4E5B9)
		}
		dst[i] = seed[(pos)%8]
	}
}

// checkPattern compares Pattern with patternRef, and checks that Pattern
// writes nothing outside dst.
func checkPattern(t *testing.T, lba uint64, off, n int) {
	t.Helper()
	const guard = 0xA5
	buf := bytes.Repeat([]byte{guard}, n+16)
	Pattern(lba, off, buf[8:8+n])
	want := bytes.Repeat([]byte{guard}, n+16)
	patternRef(lba, off, want[8:8+n])
	if !bytes.Equal(buf, want) {
		t.Fatalf("Pattern(lba=%d, off=%d, len=%d) differs from the byte-wise reference", lba, off, n)
	}
}

func TestPatternMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		checkPattern(t, rng.Uint64(), rng.Intn(BlockSize), rng.Intn(8300))
	}
	for off := 0; off < 17; off++ { // every head and tail alignment, short enough to have no middle
		for n := 0; n < 26; n++ {
			checkPattern(t, 7, off, n)
		}
	}
}

func FuzzPattern(f *testing.F) {
	f.Add(uint64(7), uint16(0), uint16(BlockSize))
	f.Add(uint64(1)<<39, uint16(4093), uint16(11))
	f.Add(uint64(0), uint16(3), uint16(2))
	f.Fuzz(func(t *testing.T, lba uint64, off, n uint16) {
		checkPattern(t, lba, int(off), int(n)%8300)
	})
}

func TestPatternDeterministic(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	Pattern(7, 0, a)
	Pattern(7, 0, b)
	if !bytes.Equal(a, b) {
		t.Error("pattern not deterministic")
	}
	c := make([]byte, 256)
	Pattern(8, 0, c)
	if bytes.Equal(a, c) {
		t.Error("different LBAs produced identical content")
	}
	// Offset slicing must agree with the full block.
	full := make([]byte, BlockSize)
	Pattern(7, 0, full)
	part := make([]byte, 100)
	Pattern(7, 50, part)
	if !bytes.Equal(part, full[50:150]) {
		t.Error("offset pattern disagrees with block content")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	sim := netsim.New()
	d := New(sim, Config{Latency: 10 * time.Microsecond})
	data := make([]byte, 2*BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	got := make([]byte, 2*BlockSize)
	d.Write(5, data, func() {
		d.Read(5, 2, func() { d.Fill(5, got) })
	})
	sim.Run(0)
	if !bytes.Equal(got, data) {
		t.Error("read did not return written data")
	}
	if d.Stats.Reads != 1 || d.Stats.Writes != 1 {
		t.Errorf("stats %+v", d.Stats)
	}
}

func TestReadUnwrittenIsPattern(t *testing.T) {
	sim := netsim.New()
	d := New(sim, Config{})
	got := make([]byte, BlockSize)
	d.Read(42, 1, func() { d.Fill(42, got) })
	sim.Run(0)
	want := make([]byte, BlockSize)
	Pattern(42, 0, want)
	if !bytes.Equal(got, want) {
		t.Error("unwritten block content mismatch")
	}
}

func TestLatencyAndBandwidth(t *testing.T) {
	sim := netsim.New()
	// 1 GB/s: a 4 KiB block takes ~4.096µs to transfer, plus 10µs latency.
	d := New(sim, Config{Latency: 10 * time.Microsecond, GBps: 1})
	var doneAt []time.Duration
	for i := 0; i < 2; i++ {
		d.Read(uint64(i), 1, func() { doneAt = append(doneAt, sim.Now()) })
	}
	sim.Run(0)
	if len(doneAt) != 2 {
		t.Fatal("reads incomplete")
	}
	if doneAt[0] < 14*time.Microsecond || doneAt[0] > 15*time.Microsecond {
		t.Errorf("first completion at %v, want ≈14.1µs", doneAt[0])
	}
	// Second read's transfer is serialized behind the first.
	if doneAt[1] <= doneAt[0] {
		t.Errorf("second completion %v not after first %v", doneAt[1], doneAt[0])
	}
}

// block returns one block of a recognisable constant.
func block(v byte) []byte { return bytes.Repeat([]byte{v}, BlockSize) }

// TestReadMixesOverlayAndPattern reads across written and unwritten blocks:
// each block is the overlay's or the pattern's, independently.
func TestReadMixesOverlayAndPattern(t *testing.T) {
	sim := netsim.New()
	d := New(sim, Config{Latency: time.Microsecond})
	written := map[uint64]byte{11: 0x11, 13: 0x13}
	for lba, v := range written {
		d.Write(lba, block(v), nil)
	}
	sim.Run(0)
	got := make([]byte, 5*BlockSize)
	d.Read(10, 5, func() { d.Fill(10, got) })
	sim.Run(0)
	for lba := uint64(10); lba < 15; lba++ {
		want := make([]byte, BlockSize)
		if v, ok := written[lba]; ok {
			want = block(v)
		} else {
			Pattern(lba, 0, want)
		}
		if !bytes.Equal(got[(lba-10)*BlockSize:][:BlockSize], want) {
			t.Errorf("block %d of the read is wrong", lba)
		}
	}
}

// TestReadSamplesAtCompletion overwrites a block while a read of it is in
// the device: the read returns what the block holds when it completes.
func TestReadSamplesAtCompletion(t *testing.T) {
	sim := netsim.New()
	d := New(sim, Config{Latency: 10 * time.Microsecond})
	d.Write(3, block(0xAA), nil)
	sim.Run(0)
	got := make([]byte, BlockSize)
	sim.After(5*time.Microsecond, func() { d.written[3] = block(0xBB) })
	d.Read(3, 1, func() { d.Fill(3, got) })
	sim.Run(0)
	if !bytes.Equal(got, block(0xBB)) {
		t.Errorf("read returned % x..., want the content at completion time (bb)", got[:4])
	}
}

// TestRequestsRecycled issues reads from completion callbacks: a steady
// stream of commands runs on the requests of the first few.
func TestRequestsRecycled(t *testing.T) {
	sim := netsim.New()
	d := New(sim, Config{Latency: time.Microsecond})
	left := 100
	var again func()
	again = func() {
		if left--; left > 0 {
			d.Read(uint64(left), 1, again)
		}
	}
	for i := 0; i < 4; i++ {
		d.Read(uint64(i), 1, again)
	}
	sim.Run(0)
	if d.Stats.Reads != 103 {
		t.Errorf("%d reads completed, want 103", d.Stats.Reads)
	}
	if len(d.free) != 4 {
		t.Errorf("%d requests were allocated for 4 outstanding commands", len(d.free))
	}
}

// TestReadNoAlloc: a read on a warm device — request, completion event and
// the data generated into the caller's buffer — allocates nothing.
func TestReadNoAlloc(t *testing.T) {
	sim := netsim.New()
	d := New(sim, Config{Latency: 80 * time.Microsecond, GBps: 2.67})
	buf := make([]byte, 64*BlockSize)
	done := func() { d.Fill(9, buf) }
	read := func() {
		d.Read(9, 64, done)
		sim.Run(0)
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("a read allocates %v times", n)
	}
}

func BenchmarkPattern4K(b *testing.B) {
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pattern(uint64(i), 0, buf)
	}
}

// BenchmarkDeviceRead256K is one 256 KiB read of unwritten blocks through
// the device: submit, completion event, and the data generated into the
// caller's buffer.
func BenchmarkDeviceRead256K(b *testing.B) {
	const blocks = 64
	sim := netsim.New()
	d := New(sim, Config{Latency: 80 * time.Microsecond, GBps: 2.67})
	buf := make([]byte, blocks*BlockSize)
	lba := uint64(0)
	done := func() { d.Fill(lba, buf) }
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lba = uint64(i) * blocks
		d.Read(lba, blocks, done)
		sim.Run(0)
	}
}
