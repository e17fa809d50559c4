package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/crc32c"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nvmetcp"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// The ablations quantify the design choices DESIGN.md calls out: how much
// each piece of the receive-recovery machinery (§4.3) contributes, how
// partial-record handling (§5.2) pays off, and how strong the magic
// patterns (§3.3) have to be.

// ablationVariant selects which recovery machinery the receiver keeps.
type ablationVariant int

const (
	ablFull      ablationVariant = iota // relock + speculative resync + blind resume
	ablNoPartial                        // no blind resumption of mid-stream messages
	ablNoResync                         // deterministic relock only, no speculation
	ablNone                             // no recovery: first OoS packet kills the offload
)

func (v ablationVariant) String() string {
	switch v {
	case ablFull:
		return "full recovery"
	case ablNoPartial:
		return "no partial offload"
	case ablNoResync:
		return "relock only"
	case ablNone:
		return "no recovery"
	}
	return "?"
}

// runRecoveryAblation transfers a fixed stream under loss with the given
// receiver variant and returns the record classification, the receiver's
// host cycles per byte and how many connections an error killed.
func runRecoveryAblation(v ablationVariant, loss float64, seed int64) (st ktls.Stats, cpb float64, failed int) {
	w := faultPair(netsim.FaultConfig{LossProb: loss, Seed: seed}, netsim.FaultConfig{})
	cliTLS, srvTLS := TLSKeys(16 << 10)

	var conn *ktls.Conn
	w.Srv.Stack.Listen(5001, func(s *tcpip.Socket) {
		c := newConn(s, srvTLS, nil, false, false)
		conn = c
		hw, err := ktls.NewHW(srvTLS.Key, srvTLS.RxIV, &w.Model, w.Srv.Ledger)
		must(err)
		var ops *ktls.RxOps
		if v == ablNoPartial {
			ops = ktls.NewRxOpsNoPartial(hw)
		} else {
			ops = ktls.NewRxOps(hw, nil)
		}
		resync := v != ablNoResync && v != ablNone
		eng := c.InstallRxEngine(w.Srv.NIC, ops, resync)
		if v == ablNone {
			eng.DisableRecovery()
		}
		c.OnPlain = func(ktls.PlainChunk) {}
		c.OnError = func(error) { failed++ }
	})
	msg := make([]byte, 256<<10)
	w.Gen.Stack.Connect(wire.Addr{IP: w.Srv.Stack.IP(), Port: 5001}, func(s *tcpip.Socket) {
		c := newConn(s, cliTLS, w.Gen.NIC, true, false)
		c.OnError = func(error) { failed++ }
		pump := func(c *ktls.Conn) {
			for c.Write(msg) > 0 {
			}
		}
		c.OnDrain = pump
		pump(c)
	})
	w.Sim.RunFor(8 * time.Millisecond)
	st = conn.Stats
	if n := st.RecordsRx; n > 0 {
		cpb = w.Srv.Ledger.HostCycles() / float64(uint64(n)*16<<10)
	}
	return st, cpb, failed
}

// AblationRecovery compares the receive-recovery variants under loss.
func AblationRecovery() []*Table {
	t := &Table{
		ID:    "abl-recovery",
		Title: "Ablation: receive-context recovery machinery (2% loss, 16KiB records)",
		Columns: []string{"variant", "records", "fully", "partially", "none",
			"host cyc/B"},
	}
	for _, v := range []ablationVariant{ablFull, ablNoPartial, ablNoResync, ablNone} {
		st, cpb, failed := runRecoveryAblation(v, 0.02, 321)
		if failed > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %d connections died of an error", v, failed))
		}
		n := float64(st.RecordsRx)
		if n == 0 {
			n = 1
		}
		t.Rows = append(t.Rows, []string{
			v.String(), fmt.Sprint(st.RecordsRx),
			pct(float64(st.RxFullyOffloaded) / n),
			pct(float64(st.RxPartial) / n),
			pct(float64(st.RxUnoffloaded) / n),
			f2(cpb),
		})
	}
	t.Notes = append(t.Notes,
		"each removed mechanism shifts records toward the software path and raises host cycles")
	return []*Table{t}
}

// AblationMagic measures how often random in-stream bytes would be
// mistaken for a message header during speculative search (§3.3): the
// false-positive rate decides how much tracking-and-confirmation churn the
// hardware endures.
func AblationMagic() []*Table {
	t := &Table{
		ID:      "abl-magic",
		Title:   "Ablation: magic-pattern strength (false positives per MiB scanned)",
		Columns: []string{"pattern", "checked bytes", "false positives/MiB"},
	}
	rng := rand.New(rand.NewSource(7))
	const n = 8 << 20
	buf := make([]byte, n)
	rng.Read(buf)

	type check struct {
		name  string
		bytes int
		ok    func(win []byte) bool
	}
	checks := []check{
		{"TLS type byte only", 1, func(w []byte) bool {
			return w[0] == ktls.RecordTypeData
		}},
		{"TLS full header (type+version+length)", 5, func(w []byte) bool {
			_, ok := ktls.ParseHeader(w[:5])
			return ok
		}},
		{"NVMe-TCP header w/o digest", nvmetcp.BaseHeaderLen, func(w []byte) bool {
			if w[0] != nvmetcp.TypeCmd && w[0] != nvmetcp.TypeResp {
				return false
			}
			return w[1] == nvmetcp.BaseHeaderLen
		}},
		{"NVMe-TCP header + CRC32C digest", nvmetcp.HeaderLen, func(w []byte) bool {
			_, ok := nvmetcp.ParseHeader(w[:nvmetcp.HeaderLen])
			return ok
		}},
	}
	for _, c := range checks {
		hits := 0
		for i := 0; i+c.bytes <= len(buf); i++ {
			if c.ok(buf[i : i+c.bytes]) {
				hits++
			}
		}
		perMiB := float64(hits) / (float64(n) / (1 << 20))
		t.Rows = append(t.Rows, []string{c.name, fmt.Sprint(c.bytes),
			fmt.Sprintf("%.2f", perMiB)})
	}
	t.Notes = append(t.Notes,
		"a digest-bearing header makes speculative misidentification negligible; a type byte alone would thrash the tracker",
		"crc32c sanity: "+fmt.Sprintf("%#08x", crc32c.Checksum([]byte("123456789"))))
	return []*Table{t}
}

// AblationRecordSize sweeps the TLS record size: the offload removes
// per-byte work, so its benefit shrinks as records shrink and per-record /
// per-packet costs dominate — the effect behind the small-file ends of
// Figs. 12–15.
func AblationRecordSize() []*Table {
	t := &Table{
		ID:      "abl-recsize",
		Title:   "Ablation: TLS offload gain vs record size (single core, clean link)",
		Columns: []string{"record", "sw cyc/B", "offload cyc/B", "speedup"},
	}
	for _, rec := range []int{512, 2 << 10, 4 << 10, 16 << 10} {
		sw := RunIperf(cleanPair(), IperfTLS, 1, 256<<10, rec, 2*time.Millisecond)
		hw := RunIperf(cleanPair(), IperfTLSOffload, 1, 256<<10, rec, 2*time.Millisecond)
		swCPB := sw.Snd.HostCycles() / float64(sw.Bytes)
		hwCPB := hw.Snd.HostCycles() / float64(hw.Bytes)
		t.Rows = append(t.Rows, []string{
			sizeLabel(rec), f2(swCPB), f2(hwCPB), f2(swCPB / hwCPB),
		})
	}
	t.Notes = append(t.Notes,
		"per-record and per-packet costs are not offloadable; the gain grows with record size")
	return []*Table{t}
}
