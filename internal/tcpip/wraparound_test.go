package tcpip

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestSequenceWraparound transfers enough data across the 2^32 boundary
// that every sequence comparison, buffer index, and reassembly operation
// runs on wrapped values.
func TestSequenceWraparound(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 10, Latency: 5 * time.Microsecond})
	// Start ~1 MiB below the wrap point so a 3 MiB transfer crosses it.
	p.a.SetISS(0xFFFFFFFF - 1<<20)
	p.b.SetISS(0xFFFFFFFF - 1<<19)
	data := randBytes(3<<20, 77)
	got := transfer(t, p, data, 30*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted across sequence wraparound")
	}
}

func TestSequenceWraparoundWithLoss(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.02, Seed: 5},
	})
	p.a.SetISS(0xFFFFFFFF - 1<<19)
	data := randBytes(2<<20, 78)
	got := transfer(t, p, data, 120*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted across wraparound under loss")
	}
	if p.a.Stats.Retransmits == 0 {
		t.Error("expected retransmissions")
	}
}

func TestDelayedAckCoalescing(t *testing.T) {
	// With delayed ACKs, a bulk transfer generates roughly one ACK per two
	// data segments rather than one per segment.
	p := newPair(t, netsim.LinkConfig{Gbps: 10, Latency: 5 * time.Microsecond})
	data := randBytes(1<<20, 79)
	transfer(t, p, data, 10*time.Second)
	segments := uint64(len(data)/p.model.MSS()) + 1
	acks := p.a.Stats.PacketsIn // sender receives only ACKs
	if acks > segments*3/4 {
		t.Errorf("acks=%d for %d segments — delayed ACKs not coalescing", acks, segments)
	}
	if acks < segments/4 {
		t.Errorf("acks=%d suspiciously few for %d segments", acks, segments)
	}
}

func TestRTORecoveryStreak(t *testing.T) {
	// A single (possibly spurious) timeout must not trigger full-window
	// recovery, but a streak must, and progress must reset the streak.
	sim := netsim.New()
	p := newPair(t, netsim.LinkConfig{Gbps: 1, Latency: 50 * time.Microsecond})
	_ = sim
	p.b.Listen(80, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			for {
				if _, ok := s.ReadChunk(); !ok {
					break
				}
			}
		}
	})
	var sock *Socket
	p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
		sock = s
		s.Write(randBytes(100<<10, 80))
	})
	p.sim.RunUntil(5 * time.Second)
	if sock == nil || sock.Unacked() != 0 {
		t.Fatal("clean transfer did not complete")
	}
	if sock.rtoStreak != 0 {
		t.Errorf("rtoStreak=%d after successful transfer", sock.rtoStreak)
	}
}

func TestStreamBytesWrapped(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 0.05, Latency: time.Millisecond})
	p.a.SetISS(0xFFFFFF00)
	p.b.Listen(80, func(s *Socket) {})
	payload := randBytes(4096, 81)
	var sock *Socket
	p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
		sock = s
		s.Write(payload)
	})
	p.sim.RunUntil(3 * time.Millisecond) // data buffered, little acked
	from := sock.AckedSeq()
	got, err := sock.sentBytes(from, from+4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("the send ring holds the wrong bytes across the sequence wrap")
	}
}
