package dpi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cycles"
	"repro/internal/l5p"
	"repro/internal/meta"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// The DPI offload needs a host L5P with the autonomous-offload properties
// (plaintext magic pattern + length field, §3.3). This package carries a
// minimal length-prefixed message framing for it:
//
//	magic 0x4C 0x35 ("L5") | flags 0x01 | reserved 0 | length uint32
//
// where length covers the whole message including the 8-byte header.
const (
	// HeaderLen is the framing header size.
	HeaderLen = 8
	// MaxMessage bounds one message's length.
	MaxMessage = 1 << 24

	magic0, magic1 = 0x4C, 0x35
	flagByte       = 0x01
)

// PutHeader writes a framing header for a message with n body bytes.
func PutHeader(dst []byte, n int) {
	dst[0], dst[1], dst[2], dst[3] = magic0, magic1, flagByte, 0
	binary.BigEndian.PutUint32(dst[4:8], uint32(HeaderLen+n))
}

// Frame wraps a body into a framed message.
func Frame(body []byte) []byte {
	out := make([]byte, HeaderLen+len(body))
	PutHeader(out, len(body))
	copy(out[HeaderLen:], body)
	return out
}

// ParseHeader validates the magic pattern and returns the layout.
func ParseHeader(hdr []byte) (offload.MsgLayout, bool) {
	if hdr[0] != magic0 || hdr[1] != magic1 || hdr[2] != flagByte || hdr[3] != 0 {
		return offload.MsgLayout{}, false
	}
	n := int(binary.BigEndian.Uint32(hdr[4:8]))
	if n < HeaderLen || n > MaxMessage {
		return offload.MsgLayout{}, false
	}
	return offload.MsgLayout{Total: n, Header: HeaderLen}, true
}

// MsgMatch is a pattern occurrence attributed to a message.
type MsgMatch struct {
	// MsgIndex counts messages since the offload was created (NIC path)
	// or since the scanner started (software path).
	MsgIndex uint64
	// Match is the pattern id and end offset within the message body.
	Match Match
}

// Sink receives NIC-side match reports — the "metadata to indicate the
// pattern" of §7. It is the DPI analogue of NVMe-TCP's RR table: shared
// state between the device and the inspecting software.
type Sink struct {
	// Matches accumulates NIC-reported matches in arrival order.
	Matches []MsgMatch
	// MsgsScanned counts messages the NIC fully scanned.
	MsgsScanned uint64
	// MsgsBlind counts messages whose scan was incomplete (resumed
	// mid-message); software must rescan them.
	MsgsBlind uint64
}

// RxOps is the NIC-side DPI engine: it walks message bodies through the
// automaton, reporting completed matches to the sink and flagging scanned
// packets. It implements offload.RxOps.
type RxOps struct {
	model  *cycles.Model
	ledger *cycles.Ledger
	auto   *Automaton
	sink   *Sink

	state   State
	msgIdx  uint64
	blind   bool
	scratch []Match
}

// NewRxOps creates the NIC-side ops sharing an automaton and sink with
// the inspecting software.
func NewRxOps(model *cycles.Model, ledger *cycles.Ledger, auto *Automaton, sink *Sink) *RxOps {
	return &RxOps{model: model, ledger: ledger, auto: auto, sink: sink}
}

var _ offload.RxOps = (*RxOps)(nil)

// HeaderLen implements offload.RxOps.
func (o *RxOps) HeaderLen() int { return HeaderLen }

// ParseHeader implements offload.RxOps.
func (o *RxOps) ParseHeader(hdr []byte) (offload.MsgLayout, bool) { return ParseHeader(hdr) }

// BeginMessage implements offload.RxOps: matching state resets per message
// (patterns never match across messages, §7).
func (o *RxOps) BeginMessage(_ offload.MsgLayout, _ []byte, idx uint64) {
	o.state = 0
	o.msgIdx = idx
	o.blind = false
}

// ResumeMessage implements offload.RxOps: a message whose prefix the NIC
// missed cannot be scanned soundly; mark it blind so software rescans.
func (o *RxOps) ResumeMessage(_ offload.MsgLayout, _ []byte, idx uint64, _ int) {
	o.state = 0
	o.msgIdx = idx
	o.blind = true
}

// Body implements offload.RxOps.
func (o *RxOps) Body(_ uint32, data []byte, off int) {
	o.ledger.Charge(cycles.NIC, cycles.AppWork, float64(len(data))*0.1, len(data))
	if o.blind {
		return
	}
	o.scratch = o.scratch[:0]
	o.state = o.auto.Step(o.state, data, off, &o.scratch)
	for _, m := range o.scratch {
		o.sink.Matches = append(o.sink.Matches, MsgMatch{MsgIndex: o.msgIdx, Match: m})
	}
}

// Trailer implements offload.RxOps (the framing has no trailer).
func (o *RxOps) Trailer(uint32, []byte, int) {}

// EndMessage implements offload.RxOps.
func (o *RxOps) EndMessage() bool {
	if o.blind {
		o.sink.MsgsBlind++
	} else {
		o.sink.MsgsScanned++
	}
	return true
}

// AbortMessage implements offload.RxOps.
func (o *RxOps) AbortMessage() { o.blind = true }

// NoteDiscontinuity implements offload.RxOps.
func (o *RxOps) NoteDiscontinuity() {}

// PacketVerdict implements offload.RxOps.
func (o *RxOps) PacketVerdict(processed, _ bool) meta.RxFlags {
	if processed && !o.blind {
		return meta.DPIScanned
	}
	if processed {
		return 0
	}
	return 0
}

// Scanner is the inspecting software: it reassembles framed messages from
// annotated chunks and reports each message's matches, trusting the NIC's
// results when every chunk of the message carries DPIScanned and scanning
// in software otherwise (§7's fallback rule).
type Scanner struct {
	model  *cycles.Model
	ledger *cycles.Ledger
	auto   *Automaton
	sink   *Sink

	asm    l5p.Assembler
	msgIdx uint64
	nicCur int // cursor into sink.Matches

	// Resync plumbing (l5o_resync_rx_req/resp, §4.3).
	engine *offload.RxEngine
	resync l5p.ResyncMailbox

	// dead marks a scanner whose message stream became unparseable; no
	// further chunks are processed.
	dead bool

	// OnMessage receives each message's body and its match set.
	OnMessage func(body []byte, matches []Match)
	// OnError receives the fatal framing error (corruption that slipped
	// past L4).
	OnError func(error)

	// Stats counts how messages were handled.
	Stats ScannerStats
}

// ScannerStats counts scanner outcomes.
type ScannerStats struct {
	Messages    uint64
	NICAccepted uint64 // match sets taken from the NIC
	SwScanned   uint64 // software rescans (unscanned or blind messages)
	SwBytes     uint64

	FramingErrors uint64 // unparseable message stream: scanner dead
}

// NewScanner builds the software side sharing the automaton and sink with
// the NIC ops. sink may be nil when no offload is attached.
func NewScanner(model *cycles.Model, ledger *cycles.Ledger, auto *Automaton, sink *Sink) *Scanner {
	return &Scanner{model: model, ledger: ledger, auto: auto, sink: sink,
		asm:    l5p.Assembler{HeaderLen: HeaderLen, Parse: ParseHeader},
		resync: l5p.ResyncMailbox{Model: model, Ledger: ledger}}
}

// RegisterTelemetry exports the scanner's counters under prefix (nil-safe
// on both sides).
func (s *Scanner) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if s == nil || reg == nil {
		return
	}
	reg.RegisterCounters(prefix, &s.Stats)
}

// AttachEngine completes the offload wiring: the scanner answers the
// engine's speculative resync requests as the stream reaches them.
func (s *Scanner) AttachEngine(e *offload.RxEngine) { s.engine = e }

// RequestResync is the driver upcall target for the engine's resyncReq.
func (s *Scanner) RequestResync(seq uint32) { s.resync.Request(seq) }

// Push feeds an annotated chunk from the transport.
func (s *Scanner) Push(ch tcpip.Chunk) {
	if s.dead {
		return
	}
	s.asm.Push(ch)
	for {
		chunks, total, err := s.asm.Next()
		if err != nil {
			s.dead = true
			s.Stats.FramingErrors++
			if s.OnError != nil {
				s.OnError(fmt.Errorf("dpi: %w", err))
			}
			return
		}
		if chunks == nil {
			return
		}
		s.handle(chunks, total)
	}
}

func (s *Scanner) handle(chunks []tcpip.Chunk, total int) {
	idx := s.msgIdx
	s.msgIdx++
	s.Stats.Messages++
	s.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, s.model.L5PPerMessage, 0)

	// Answer an outstanding speculative-header confirmation once the
	// stream position reaches it.
	s.resync.Answer(s.engine, chunks[0].Seq, total, idx)

	body := l5p.AppendRange(nil, chunks, HeaderLen, total)
	if all, _ := l5p.Verdict(chunks); all.Has(meta.DPIScanned) && s.sink != nil {
		// Harvest the NIC's match reports for this message index.
		var matches []Match
		for s.nicCur < len(s.sink.Matches) &&
			s.sink.Matches[s.nicCur].MsgIndex <= idx {
			if m := s.sink.Matches[s.nicCur]; m.MsgIndex == idx {
				matches = append(matches, m.Match)
			}
			s.nicCur++
		}
		s.Stats.NICAccepted++
		s.emit(body, matches)
		return
	}

	// Software fallback: rescan the whole message.
	s.Stats.SwScanned++
	s.Stats.SwBytes += uint64(len(body))
	s.ledger.Charge(cycles.HostL5P, cycles.AppWork, float64(len(body))*1.2, len(body))
	s.emit(body, s.auto.Scan(body))
}

func (s *Scanner) emit(body []byte, matches []Match) {
	if s.OnMessage != nil {
		s.OnMessage(body, matches)
	}
}
