package dpi

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// naiveScan is the reference matcher the automaton is checked against.
func naiveScan(patterns [][]byte, text []byte) []Match {
	var out []Match
	for i := range text {
		for id, p := range patterns {
			if len(p) == 0 {
				continue
			}
			if i+1 >= len(p) && bytes.Equal(text[i+1-len(p):i+1], p) {
				out = append(out, Match{Pattern: id, End: i})
			}
		}
	}
	// Naive order is position-major then id; the automaton emits in the
	// same order because outputs are sorted per state.
	return out
}

func TestAutomatonKnown(t *testing.T) {
	a := NewAutomaton([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")})
	got := a.Scan([]byte("ushers"))
	want := []Match{{1, 3}, {0, 3}, {3, 5}} // she@3, he@3, hers@5
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Compare as sets (order among same-position matches may differ).
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("missing match %v in %v", w, got)
		}
	}
}

func TestAutomatonMatchesNaive(t *testing.T) {
	f := func(p1, p2, p3 []byte, text []byte) bool {
		if len(p1) > 6 {
			p1 = p1[:6]
		}
		if len(p2) > 4 {
			p2 = p2[:4]
		}
		if len(p3) > 2 {
			p3 = p3[:2]
		}
		pats := [][]byte{p1, p2, p3}
		a := NewAutomaton(pats)
		got := a.Scan(text)
		want := naiveScan(pats, text)
		return sameMatchSet(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sameMatchSet(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[Match]int{}
	for _, m := range a {
		count[m]++
	}
	for _, m := range b {
		count[m]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestAutomatonIncrementalState(t *testing.T) {
	// Splitting the input at any byte must yield identical matches — the
	// constant-size-state property the offload depends on.
	pats := [][]byte{[]byte("abab"), []byte("ba"), []byte("abc")}
	a := NewAutomaton(pats)
	text := []byte("abababcbaabab")
	want := a.Scan(text)
	for i := 0; i <= len(text); i++ {
		var out []Match
		st := a.Step(0, text[:i], 0, &out)
		a.Step(st, text[i:], i, &out)
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("split at %d: %v != %v", i, out, want)
		}
	}
}

func TestFraming(t *testing.T) {
	msg := Frame([]byte("payload"))
	layout, ok := ParseHeader(msg[:HeaderLen])
	if !ok || layout.Total != len(msg) || layout.Header != HeaderLen {
		t.Fatalf("layout=%+v ok=%v", layout, ok)
	}
	bad := append([]byte(nil), msg...)
	bad[0] = 0
	if _, ok := ParseHeader(bad[:HeaderLen]); ok {
		t.Error("bad magic accepted")
	}
}

// dpiWorld wires sender → receiver with the DPI engine on the receiver NIC.
type dpiWorld struct {
	sim     *netsim.Simulator
	snd     *tcpip.Stack
	scanner *Scanner
	sink    *Sink
}

func newDPIWorld(t *testing.T, auto *Automaton, loss float64, offloaded bool) *dpiWorld {
	t.Helper()
	w := &dpiWorld{sim: netsim.New()}
	model := cycles.DefaultModel()
	link := netsim.NewLink(w.sim, netsim.LinkConfig{
		Gbps:    10,
		Latency: 2 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: loss, Seed: 42},
	})
	sndLg, rcvLg := &cycles.Ledger{}, &cycles.Ledger{}
	w.snd = tcpip.NewStack(w.sim, [4]byte{10, 0, 0, 1}, &model, sndLg)
	rcv := tcpip.NewStack(w.sim, [4]byte{10, 0, 0, 2}, &model, rcvLg)
	sndNIC := nic.New(w.snd, link.SendAtoB, nic.Config{Model: &model, Ledger: sndLg})
	rcvNIC := nic.New(rcv, link.SendBtoA, nic.Config{Model: &model, Ledger: rcvLg})
	link.AttachA(sndNIC)
	link.AttachB(rcvNIC)

	w.sink = &Sink{}
	w.scanner = NewScanner(&model, rcvLg, auto, w.sink)
	rcv.Listen(9999, func(s *tcpip.Socket) {
		if offloaded {
			ops := NewRxOps(&model, rcvLg, auto, w.sink)
			eng := offload.NewRxEngine(ops, s.ReadSeq(), w.scanner.RequestResync)
			w.scanner.AttachEngine(eng)
			rcvNIC.AttachRx(s.Flow().Reverse(), eng)
		}
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				ch, ok := s.ReadChunk()
				if !ok {
					break
				}
				w.scanner.Push(ch)
			}
		}
	})
	return w
}

// genMessages builds a deterministic message stream with known matches.
func genMessages(patterns [][]byte, count int, seed int64) ([][]byte, [][]Match) {
	rng := rand.New(rand.NewSource(seed))
	auto := NewAutomaton(patterns)
	msgs := make([][]byte, count)
	want := make([][]Match, count)
	for i := range msgs {
		body := make([]byte, 500+rng.Intn(6000))
		rng.Read(body)
		// Plant a few patterns at random offsets.
		for k := 0; k < rng.Intn(5); k++ {
			p := patterns[rng.Intn(len(patterns))]
			off := rng.Intn(len(body) - len(p))
			copy(body[off:], p)
		}
		msgs[i] = body
		want[i] = auto.Scan(body)
	}
	return msgs, want
}

func runDPI(t *testing.T, loss float64, offloaded bool) (*Scanner, *Sink, [][]Match, [][]Match) {
	t.Helper()
	patterns := [][]byte{
		[]byte("EVIL_PATTERN"), []byte("exploit"), []byte("\x00\x01\x02\x03"),
	}
	auto := NewAutomaton(patterns)
	msgs, want := genMessages(patterns, 60, 7)
	w := newDPIWorld(t, auto, loss, offloaded)

	var got [][]Match
	w.scanner.OnMessage = func(body []byte, matches []Match) {
		got = append(got, append([]Match(nil), matches...))
	}

	w.snd.Connect(wire.Addr{IP: [4]byte{10, 0, 0, 2}, Port: 9999}, func(s *tcpip.Socket) {
		var queue []byte
		for _, m := range msgs {
			queue = append(queue, Frame(m)...)
		}
		pump := func(s *tcpip.Socket) {
			n := s.Write(queue)
			queue = queue[n:]
		}
		s.OnDrain = pump
		pump(s)
	})
	w.sim.RunUntil(30 * time.Second)
	if len(got) != len(msgs) {
		t.Fatalf("scanner saw %d of %d messages", len(got), len(msgs))
	}
	return w.scanner, w.sink, got, want
}

func TestDPISoftwareOnly(t *testing.T) {
	sc, _, got, want := runDPI(t, 0, false)
	for i := range want {
		if !sameMatchSet(got[i], want[i]) {
			t.Fatalf("msg %d: %v != %v", i, got[i], want[i])
		}
	}
	if sc.Stats.NICAccepted != 0 {
		t.Error("software-only run accepted NIC results")
	}
}

func TestDPIOffloadedClean(t *testing.T) {
	sc, sink, got, want := runDPI(t, 0, true)
	for i := range want {
		if !sameMatchSet(got[i], want[i]) {
			t.Fatalf("msg %d: %v != %v", i, got[i], want[i])
		}
	}
	if sc.Stats.NICAccepted != sc.Stats.Messages {
		t.Errorf("clean link: %d of %d messages NIC-accepted",
			sc.Stats.NICAccepted, sc.Stats.Messages)
	}
	if sink.MsgsScanned == 0 {
		t.Error("NIC scanned nothing")
	}
}

func TestDPIOffloadedUnderLoss(t *testing.T) {
	// The transparency property for DPI: identical match sets with loss,
	// offloaded messages from the NIC and the rest rescanned in software.
	sc, _, got, want := runDPI(t, 0.02, true)
	for i := range want {
		if !sameMatchSet(got[i], want[i]) {
			t.Fatalf("msg %d under loss: %v != %v", i, got[i], want[i])
		}
	}
	if sc.Stats.NICAccepted == 0 {
		t.Error("no NIC-accepted messages under 2% loss")
	}
	if sc.Stats.SwScanned == 0 {
		t.Error("loss should force some software rescans")
	}
	t.Logf("dpi under loss: %+v", sc.Stats)
}

func TestDPIChunkFlagsPropagate(t *testing.T) {
	// Directly verify the DPIScanned flag semantics on a synthetic chunk.
	var f meta.RxFlags = meta.DPIScanned
	if !f.Has(meta.DPIScanned) {
		t.Error("flag round trip failed")
	}
}

func BenchmarkAutomatonScan(b *testing.B) {
	patterns := make([][]byte, 50)
	rng := rand.New(rand.NewSource(1))
	for i := range patterns {
		p := make([]byte, 4+rng.Intn(12))
		rng.Read(p)
		patterns[i] = p
	}
	a := NewAutomaton(patterns)
	text := make([]byte, 64<<10)
	rng.Read(text)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []Match
		a.Step(0, text, 0, &out)
	}
}

// TestScannerMalformedFraming: bytes that do not frame (corruption that
// slipped past L4) kill the scanner through OnError instead of panicking;
// the messages before them are delivered, nothing after them is.
func TestScannerMalformedFraming(t *testing.T) {
	model := cycles.DefaultModel()
	s := NewScanner(&model, &cycles.Ledger{}, NewAutomaton([][]byte{[]byte("needle")}), nil)
	var bodies [][]byte
	s.OnMessage = func(body []byte, _ []Match) { bodies = append(bodies, body) }
	var errs []error
	s.OnError = func(err error) { errs = append(errs, err) }

	good := Frame([]byte("a needle in a haystack"))
	stream := append(append([]byte(nil), good...), bytes.Repeat([]byte{0xEE}, HeaderLen)...)
	stream = append(stream, good...)
	for off := 0; off < len(stream); off += 5 {
		s.Push(tcpip.Chunk{Seq: uint32(off), Data: stream[off:min(off+5, len(stream))]})
	}
	if len(bodies) != 1 || !bytes.Equal(bodies[0], good[HeaderLen:]) {
		t.Errorf("delivered %d messages, want only the one before the garbage", len(bodies))
	}
	if len(errs) != 1 || s.Stats.FramingErrors != 1 || s.Stats.Messages != 1 {
		t.Errorf("errors %v, stats %+v; want one framing error after one message", errs, s.Stats)
	}
}
