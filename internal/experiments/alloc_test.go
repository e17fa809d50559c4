package experiments

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// TestPlainTCPPairNoAlloc is the whole-world allocation guard of the
// plain-TCP path: one connection of the two-machine world — sender, both
// stacks, both NICs, the link and its frame pool — streaming the offset
// pattern to a reader that checks every byte. Once warm, a further window
// of virtual time must allocate nothing: every segment and ACK is built in
// its stack's one packet, every frame comes from the pool, every event is
// a re-armed timer. An allocation per packet anywhere on the path shows up
// here, whichever layer adds it.
func TestPlainTCPPairNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	w := NewPairWorld(netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}, nic.Config{})
	var checked uint64
	bad := false
	w.Srv.Stack.Listen(5001, func(s *tcpip.Socket) {
		s.OnReadable = func(s *tcpip.Socket) {
			for ch, ok := s.ReadChunk(); ok; ch, ok = s.ReadChunk() {
				bad = bad || patternMismatch(ch.Data, checked) >= 0
				checked += uint64(len(ch.Data))
			}
		}
	})
	const msgSize = 64 << 10
	pat := make([]byte, msgSize+patPeriod)
	fillPattern(pat, 0)
	var sent uint64
	w.Gen.Stack.Connect(wire.Addr{IP: w.Srv.Stack.IP(), Port: 5001}, func(s *tcpip.Socket) {
		s.OnDrain = func(s *tcpip.Socket) {
			for {
				p := sent % patPeriod
				n := s.Write(pat[p : p+msgSize])
				if n <= 0 {
					return
				}
				sent += uint64(n)
			}
		}
		s.OnDrain(s)
	})
	w.Sim.RunFor(3 * time.Millisecond) // windows open, rings and pools reach their working size
	warm := checked
	allocs := testing.AllocsPerRun(10, func() { w.Sim.RunFor(100 * time.Microsecond) })
	if allocs != 0 {
		t.Errorf("%v allocations per 100 µs of streaming, want 0", allocs)
	}
	if bad || checked == warm {
		t.Errorf("reader checked %d bytes after warm-up, mismatch %v", checked-warm, bad)
	}
}
