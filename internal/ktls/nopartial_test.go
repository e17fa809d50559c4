package ktls

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/gcm"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// TestNoPartialAblationConsistency checks the ablation variant that skips
// blind resumption: every chunk's flags must still match its content.
func TestNoPartialAblationConsistency(t *testing.T) {
	data := payload(400<<10, 6)
	w := newWorld(lossyLink(0.02, 7))
	cliCfg, srvCfg := testCfgPair()

	cipher, _ := gcm.NewCached(srvCfg.Key)
	recSize := MaxPlaintext
	type rec struct{ pt, ct []byte }
	var recs []rec
	for off := 0; off < len(data); off += recSize {
		n := min(recSize, len(data)-off)
		hdr := make([]byte, HeaderLen)
		PutHeader(hdr, n)
		nonce := RecordNonce(cliCfg.TxIV, uint64(len(recs)))
		s := cipher.NewStream(gcm.Seal, nonce[:], hdr)
		ct := make([]byte, n)
		s.Update(ct, data[off:off+n])
		recs = append(recs, rec{pt: data[off : off+n], ct: ct})
	}

	testRecordTap = func(chunks []tcpip.Chunk, recStart uint32, idx int) {
		if idx >= len(recs) {
			return
		}
		off := 0
		bodyLen := len(recs[idx].pt)
		for _, ch := range chunks {
			start, end := off, off+len(ch.Data)
			off = end
			lo, hi := max(start, HeaderLen), min(end, HeaderLen+bodyLen)
			if lo >= hi {
				continue
			}
			seg := ch.Data[lo-start : hi-start]
			isPT := bytes.Equal(seg, recs[idx].pt[lo-HeaderLen:hi-HeaderLen])
			isCT := bytes.Equal(seg, recs[idx].ct[lo-HeaderLen:hi-HeaderLen])
			flagged := ch.Flags.Has(2 /* TLSDecrypted */)
			if flagged && !isPT {
				t.Errorf("rec %d chunk [%d,%d): flagged but ct=%v", idx, lo, hi, isCT)
			}
			if !flagged && !isCT {
				t.Errorf("rec %d chunk [%d,%d): unflagged but pt=%v", idx, lo, hi, isPT)
			}
		}
	}
	defer func() { testRecordTap = nil }()

	var srvConn *Conn
	w.srvStack.Listen(443, func(s *tcpip.Socket) {
		conn, _ := NewConn(s, srvCfg)
		srvConn = conn
		hw, _ := NewHW(srvCfg.Key, srvCfg.RxIV, &w.model, w.srvLedger)
		conn.InstallRxEngine(w.srvNIC, NewRxOpsNoPartial(hw), true)
		conn.OnPlain = func(PlainChunk) {}
		conn.OnError = func(err error) { t.Errorf("record error: %v", err) }
	})
	w.cliStack.Connect(wire.Addr{IP: w.srvStack.IP(), Port: 443}, func(s *tcpip.Socket) {
		conn, _ := NewConn(s, cliCfg)
		conn.EnableTxOffload(w.cliNIC, false)
		remaining := data
		pump := func(c *Conn) {
			n := c.Write(remaining)
			remaining = remaining[n:]
		}
		conn.OnDrain = pump
		pump(conn)
	})
	w.sim.RunUntil(10 * time.Second)
	if srvConn == nil || srvConn.Stats.RecordsRx == 0 {
		t.Fatal("no records")
	}
	t.Logf("stats: %+v", srvConn.Stats)
}
