package offload

import (
	"math/rand"
	"testing"
)

// FuzzRxEngine feeds a well-formed toy-protocol stream through the receive
// engine with fuzzer-chosen segmentation, drops, duplicates, and byte
// corruption. The engine must never panic and must uphold every tpOps
// contract (begin/end pairing, contiguous body offsets) no matter how the
// stream is cut or mangled; on an uncorrupted run it must additionally
// never fail an integrity check.
func FuzzRxEngine(f *testing.F) {
	f.Add(int64(1), []byte{10, 200, 40, 0, 90, 5})
	f.Add(int64(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(3), []byte{255, 0, 255, 0, 128})
	f.Add(int64(4), []byte{7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, seed int64, ctl []byte) {
		if len(ctl) == 0 || len(ctl) > 1<<10 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		nMsgs := 3 + rng.Intn(10)
		sizes := make([]int, nMsgs)
		for i := range sizes {
			sizes[i] = rng.Intn(600)
		}
		st := buildStream(uint32(rng.Intn(1<<30)), sizes, seed)
		ops := &tpOps{t: t}
		h := &confirmHarness{st: st, delay: int(ctl[0]) % 5}
		e := NewRxEngine(ops, st.base, resyncFunc(h.request))
		h.e = e

		ctlAt := func(i int) int { return int(ctl[i%len(ctl)]) }
		corrupted := false
		off := 0
		for i := 0; off < len(st.data); i++ {
			n := 1 + ctlAt(3*i)*3
			if off+n > len(st.data) {
				n = len(st.data) - off
			}
			seq := st.base + uint32(off)
			p := append([]byte(nil), st.data[off:off+n]...)
			switch ctlAt(3*i+1) % 8 {
			case 0: // lost packet
			case 1: // corrupt one byte, then deliver
				p[ctlAt(3*i+2)%len(p)] ^= 1 + byte(ctlAt(3*i+2))
				corrupted = true
				e.Process(seq, p, false)
			case 2: // deliver twice (retransmission of processed data)
				e.Process(seq, p, false)
				e.Process(seq, append([]byte(nil), st.data[off:off+n]...), false)
			default:
				e.Process(seq, p, false)
			}
			h.tick()
			off += n
		}
		for i := 0; i < 8; i++ {
			h.tick() // drain delayed resync confirmations
		}
		if ops.inMsg {
			// The stream may end mid-message only if its tail was dropped;
			// finishing with a message open is fine, but the engine must not
			// have claimed to complete more messages than exist.
		}
		if ops.completed > uint64(nMsgs) {
			t.Errorf("completed %d of %d messages", ops.completed, nMsgs)
		}
		if !corrupted && ops.failed != 0 {
			t.Errorf("%d integrity failures on uncorrupted data", ops.failed)
		}
	})
}

// FuzzRxSearchGarbage drives the header-parse/search path with arbitrary
// bytes: the engine starts desynchronized and scans fuzzer-provided data
// for the magic pattern. False locks are acceptable — panics, unbounded
// layouts, or tpOps contract violations are not.
func FuzzRxSearchGarbage(f *testing.F) {
	f.Add([]byte{0xA5, 0x5A, 0x00, 0x10, 1, 2, 3})
	f.Add([]byte{0xA5, 0x5A, 0xFF, 0xFF})
	f.Add([]byte{0xA5, 0x5A, 0x00, 0x00})
	f.Add([]byte{0, 0, 0, 0, 0xA5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 1<<12 {
			return
		}
		ops := &tpOps{t: t}
		var e *RxEngine
		e = NewRxEngine(ops, 1000, resyncFunc(func(seq uint32) {
			// Confirm everything: a false lock on garbage then proceeds to
			// track whatever the bytes describe, which must stay in-bounds.
			e.ResyncResponse(seq, true, 7)
		}))
		// Desync first so the engine is searching when the garbage arrives.
		e.Process(5_000_000, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false)
		if e.State() != "searching" {
			t.Fatalf("engine not searching: %s", e.State())
		}
		// Feed the garbage as a contiguous stream in fuzzer-shaped chunks.
		seq := uint32(5_000_008)
		for off := 0; off < len(raw); {
			n := 1 + int(raw[off])%97
			if off+n > len(raw) {
				n = len(raw) - off
			}
			e.Process(seq, append([]byte(nil), raw[off:off+n]...), false)
			seq += uint32(n)
			off += n
		}
	})
}
