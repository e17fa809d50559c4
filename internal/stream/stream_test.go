package stream

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

func pair(t *testing.T) (*netsim.Simulator, *tcpip.Stack, *tcpip.Stack) {
	t.Helper()
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{Gbps: 10, Latency: 2 * time.Microsecond})
	lgA, lgB := &cycles.Ledger{}, &cycles.Ledger{}
	a := tcpip.NewStack(sim, [4]byte{10, 0, 0, 1}, &model, lgA)
	b := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, lgB)
	na := nic.New(a, link.SendAtoB, nic.Config{})
	nb := nic.New(b, link.SendBtoA, nic.Config{})
	link.AttachA(na)
	link.AttachB(nb)
	return sim, a, b
}

func exerciseStream(t *testing.T, sim *netsim.Simulator, tx, rx Stream) {
	t.Helper()
	var got bytes.Buffer
	rx.SetOnData(func(ch tcpip.Chunk) { got.Write(ch.Data) })
	rx.SetOnDrain(func() {})
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(1)).Read(data)
	remaining := data
	pump := func() {
		n := tx.Write(remaining)
		remaining = remaining[n:]
	}
	tx.SetOnDrain(pump)
	tx.SetOnData(func(tcpip.Chunk) {})
	pump()
	sim.RunUntil(10 * time.Second)
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("stream mismatch: %d of %d bytes", got.Len(), len(data))
	}
	if tx.Flow().Src.IP != [4]byte{10, 0, 0, 1} {
		t.Errorf("tx flow = %v", tx.Flow())
	}
	if tx.Model() == nil || tx.Ledger() == nil {
		t.Error("accessors returned nil")
	}
}

func TestSocketTransport(t *testing.T) {
	sim, a, b := pair(t)
	var rx Stream
	b.Listen(80, func(s *tcpip.Socket) { rx = NewSocketTransport(s) })
	var tx Stream
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
		tx = NewSocketTransport(s)
	})
	sim.RunUntil(time.Millisecond)
	if tx == nil || rx == nil {
		t.Fatal("setup failed")
	}
	if tx.WriteSeq() != tx.AckedSeq() {
		t.Error("fresh stream should have WriteSeq == AckedSeq")
	}
	exerciseStream(t, sim, tx, rx)
}

func TestTLSTransport(t *testing.T) {
	sim, a, b := pair(t)
	key := make([]byte, 16)
	rand.New(rand.NewSource(2)).Read(key)
	var ivA, ivB [12]byte
	ivA[0], ivB[0] = 1, 2
	var rx, tx Stream
	b.Listen(443, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, ktls.Config{Key: key, TxIV: ivB, RxIV: ivA})
		if err != nil {
			t.Fatal(err)
		}
		rx = NewTLSTransport(conn)
	})
	a.Connect(wire.Addr{IP: b.IP(), Port: 443}, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, ktls.Config{Key: key, TxIV: ivA, RxIV: ivB})
		if err != nil {
			t.Fatal(err)
		}
		tx = NewTLSTransport(conn)
	})
	sim.RunUntil(time.Millisecond)
	if tx == nil || rx == nil {
		t.Fatal("setup failed")
	}
	// The first plaintext byte sits one record header past the socket
	// read position.
	if rx.ReadSeq() == 0 {
		t.Error("ReadSeq should reflect the record body position")
	}
	exerciseStream(t, sim, tx, rx)
}
