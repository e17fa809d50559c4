package nvmetcp

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/netsim"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestConcurrentTLSReadsUnderLoss regression-tests the RTO loss-recovery
// path: many outstanding reads through the stacked NVMe-over-TLS offload
// with response loss once deadlocked behind one-RTO-per-hole recovery.
func TestConcurrentTLSReadsUnderLoss(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link: netsim.LinkConfig{
			Gbps:    100,
			Latency: 2 * time.Microsecond,
			BtoA:    netsim.FaultConfig{LossProb: 0.01, Seed: 5},
		},
		overTLS:   true,
		rxOffload: true,
	})
	const requests = 16
	remaining := requests
	for i := 0; i < requests; i++ {
		buf := make([]byte, 32*blockdev.BlockSize)
		w.host.ReadBlocks(uint64(i*32), 32, buf, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			remaining--
		})
	}
	w.sim.RunFor(3 * time.Second)
	if remaining != 0 {
		t.Errorf("%d of %d concurrent reads never completed; tgt sock: %s",
			remaining, requests, w.tgtConn.Socket().DebugString())
	}
}

// TestWriteTxOffloadUnderLoss exercises the transmit data-digest offload's
// context recovery: command-direction loss forces retransmissions whose
// capsules the NIC must re-digest from retained host memory (Fig. 6). The
// target verifies every digest in software — any recovery bug shows up as
// a digest error.
//
// Capsule buffers are recycled as soon as the socket has copied them, and a
// replay reads the capsule back from the socket's send ring, never from its
// buffer: the test overwrites every capsule with 0xDB the moment WriteZC
// returns (a replay that read the buffer would compute a poisoned digest),
// and the second round of writes is built in the poisoned buffers of the
// first.
func TestWriteTxOffloadUnderLoss(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link: netsim.LinkConfig{
			Gbps:    100,
			Latency: 2 * time.Microsecond,
			AtoB:    netsim.FaultConfig{LossProb: 0.02, Seed: 9},
		},
		txOffload: true,
	})
	out := &w.host.out
	poisoned := 0
	out.tr = poisonWrites{Stream: out.tr, n: &poisoned}
	const writes = 12
	content := func(round, i, j int) byte { return byte(round*97 + i*31 + j) }
	for round := 0; round < 2; round++ {
		remaining := writes
		for i := 0; i < writes; i++ {
			data := make([]byte, 16*blockdev.BlockSize)
			for j := range data {
				data[j] = content(round, i, j)
			}
			w.host.WriteBlocks(uint64(9000+16*i), data, func(err error) {
				if err != nil {
					t.Fatalf("write: %v", err)
				}
				remaining--
			})
		}
		w.sim.RunFor(3 * time.Second)
		if remaining != 0 {
			t.Fatalf("round %d: %d writes incomplete", round, remaining)
		}
		if w.ctrl.Stats.DigestErrors != 0 {
			t.Fatalf("controller saw %d digest errors — TX recovery corrupted digests",
				w.ctrl.Stats.DigestErrors)
		}
		// Verify the data actually landed intact.
		for i := 0; i < writes; i++ {
			got := readBlocks(t, w, uint64(9000+16*i), 16)
			for j := range got {
				if got[j] != content(round, i, j) {
					t.Fatalf("round %d write %d byte %d corrupted", round, i, j)
				}
			}
		}
	}
	if w.hostStk.Stats.Retransmits == 0 {
		t.Error("no retransmission: the recovery replay was never exercised")
	}
	if poisoned != int(out.retained) || poisoned < 2*writes {
		t.Errorf("%d capsules retained, %d written", out.retained, poisoned)
	}
}

// poisonWrites overwrites what WriteZC was given as soon as the stream has
// copied it, counting the writes.
type poisonWrites struct {
	stream.Stream
	n *int
}

func (p poisonWrites) WriteZC(b []byte) int {
	n := p.Stream.WriteZC(b)
	for i := range b[:n] {
		b[i] = 0xDB
	}
	*p.n++
	return n
}

// TestReadsUnderDuplication adds packet duplication on the response path:
// the receive engine must bypass duplicate frames as "past" packets while
// every read still completes with byte-exact data.
func TestReadsUnderDuplication(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link: netsim.LinkConfig{
			Gbps:    100,
			Latency: 2 * time.Microsecond,
			BtoA:    netsim.FaultConfig{DupProb: 0.05, LossProb: 0.01, Seed: 21},
		},
		rxOffload: true,
	})
	const requests = 16
	remaining := requests
	bufs := make([][]byte, requests)
	for i := 0; i < requests; i++ {
		bufs[i] = make([]byte, 32*blockdev.BlockSize)
		w.host.ReadBlocks(uint64(i*32), 32, bufs[i], func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			remaining--
		})
	}
	w.sim.RunFor(3 * time.Second)
	if remaining != 0 {
		t.Fatalf("%d of %d reads never completed", remaining, requests)
	}
	for i, buf := range bufs {
		want := wantBlocks(uint64(i*32), 32)
		for j := range buf {
			if buf[j] != want[j] {
				t.Fatalf("read %d byte %d: got %#x want %#x", i, j, buf[j], want[j])
			}
		}
	}
	st := w.host.RxEngine().Stats
	if st.PktsBypassed == 0 {
		t.Errorf("no duplicate frames were bypassed: %+v", st)
	}
	if w.host.Stats.DigestErrors != 0 {
		t.Errorf("duplication caused %d digest errors", w.host.Stats.DigestErrors)
	}
}

// TestReadsUnderDetectableCorruption flips raw frame bits without repairing
// the TCP checksum: layer 4 must absorb every corrupt frame as loss, so all
// reads complete intact and no digest error ever reaches NVMe.
func TestReadsUnderDetectableCorruption(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link: netsim.LinkConfig{
			Gbps:    100,
			Latency: 2 * time.Microsecond,
			BtoA:    netsim.FaultConfig{CorruptProb: 0.03, Seed: 31},
		},
		rxOffload: true,
	})
	const requests = 16
	remaining := requests
	bufs := make([][]byte, requests)
	for i := 0; i < requests; i++ {
		bufs[i] = make([]byte, 32*blockdev.BlockSize)
		w.host.ReadBlocks(uint64(i*32), 32, bufs[i], func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			remaining--
		})
	}
	w.sim.RunFor(3 * time.Second)
	if remaining != 0 {
		t.Fatalf("%d of %d reads never completed", remaining, requests)
	}
	for i, buf := range bufs {
		want := wantBlocks(uint64(i*32), 32)
		for j := range buf {
			if buf[j] != want[j] {
				t.Fatalf("read %d byte %d: got %#x want %#x", i, j, buf[j], want[j])
			}
		}
	}
	if w.link.StatsBtoA().Corrupted == 0 {
		t.Fatal("fault injector never corrupted a frame")
	}
	if w.host.Stats.DigestErrors != 0 || w.host.Stats.FramingErrors != 0 {
		t.Errorf("checksum-detectable corruption leaked past TCP: %+v", w.host.Stats)
	}
}

// TestReadsUnderEvadingCorruption repairs the TCP checksum after flipping a
// payload bit, so only the NVMe data digest can catch it. Corrupt reads
// must fail with an explicit digest (or framing) error — never deliver a
// wrong byte — and the receive engine must degrade to software per its
// default policy. Clean reads still return byte-exact data.
func TestReadsUnderEvadingCorruption(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link: netsim.LinkConfig{
			Gbps:    100,
			Latency: 2 * time.Microsecond,
			BtoA: netsim.FaultConfig{
				CorruptProb: 0.02,
				Corrupter:   wire.CorruptPayload,
				Seed:        41,
			},
		},
		rxOffload: true,
	})
	const requests = 16
	okReads, failedReads := 0, 0
	bufs := make([][]byte, requests)
	oks := make([]bool, requests)
	for i := 0; i < requests; i++ {
		i := i
		bufs[i] = make([]byte, 32*blockdev.BlockSize)
		w.host.ReadBlocks(uint64(i*32), 32, bufs[i], func(err error) {
			if err != nil {
				failedReads++
			} else {
				okReads++
				oks[i] = true
			}
		})
	}
	w.sim.RunFor(3 * time.Second)
	if okReads+failedReads != requests {
		t.Fatalf("%d reads unaccounted", requests-okReads-failedReads)
	}
	if failedReads == 0 {
		t.Fatal("evading corruption never failed a read")
	}
	if w.host.Stats.DigestErrors+w.host.Stats.FramingErrors == 0 {
		t.Errorf("failed reads but no digest/framing error recorded: %+v", w.host.Stats)
	}
	if !w.host.RxEngine().FellBack() {
		t.Error("receive engine did not degrade to software after the integrity failure")
	}
	for i, buf := range bufs {
		if !oks[i] {
			continue
		}
		want := wantBlocks(uint64(i*32), 32)
		for j := range buf {
			if buf[j] != want[j] {
				t.Fatalf("successful read %d delivered wrong byte at %d", i, j)
			}
		}
	}
}
