package tcpip

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestZeroWindowReopens: an application that stops reading lets the receive
// buffer fill, the window shuts, and the sender stops with nothing in
// flight. When the application drains the buffer the transfer must resume:
// by the window update the draining read sends, and — with that update lost
// in a link outage around the drain — by the sender's persist probe.
func TestZeroWindowReopens(t *testing.T) {
	const drainAt = time.Second
	for _, tc := range []struct {
		name   string
		outage []netsim.Blackout // on the ACK direction
	}{
		{name: "window update arrives"},
		{name: "window update lost", outage: []netsim.Blackout{{Start: drainAt - time.Millisecond, End: drainAt + time.Millisecond}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, netsim.LinkConfig{Gbps: 100, Latency: 5 * time.Microsecond,
				BtoA: netsim.FaultConfig{Blackouts: tc.outage}})
			data := make([]byte, 3*defaultRcvBuf)
			rand.New(rand.NewSource(1)).Read(data)

			var srv *Socket
			var got bytes.Buffer
			reading := false
			drain := func(s *Socket) {
				for reading {
					c, ok := s.ReadChunk()
					if !ok {
						break
					}
					got.Write(c.Data)
				}
			}
			p.b.Listen(80, func(s *Socket) { srv = s; s.OnReadable = drain })
			p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
				remaining := data
				s.OnDrain = func(s *Socket) { remaining = remaining[s.Write(remaining):] }
				s.OnDrain(s)
			})

			p.sim.RunUntil(drainAt)
			if free := defaultRcvBuf - srv.Readable(); free >= p.b.MSS() {
				t.Fatalf("the receive window never shut: %d bytes still free", free)
			}
			reading = true
			acks := p.link.StatsBtoA().Sent
			drain(srv)
			if p.link.StatsBtoA().Sent != acks+1 {
				t.Errorf("draining a full buffer sent %d window updates, want 1", p.link.StatsBtoA().Sent-acks)
			}
			p.sim.RunUntil(drainAt + 10*time.Second)
			if !bytes.Equal(got.Bytes(), data) {
				t.Fatalf("transfer stalled at %d of %d bytes after the window re-opened", got.Len(), len(data))
			}
			if tc.outage != nil && p.link.StatsBtoA().Dropped == 0 {
				t.Error("the outage dropped nothing: the persist probe was not exercised")
			}
		})
	}
}
