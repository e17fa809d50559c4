package main

import (
	"bufio"
	"io"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// The traced run's span recorder. Spans are taken from the benchmark's own
// files only, at the public seams of a running world: the stack's device
// (Stack.SetDevice around NIC.Transmit), the link's endpoints
// (Link.AttachA/B around NIC.DeliverFrame), the socket's OnReadable below
// ktls, and the application callbacks. The simulator is one call stack, so
// a span's parent is simply the span open when it began; a layer's self
// time is its spans' duration minus the part their children cover.
//
// Every method is nil-receiver safe and the untraced run passes a nil
// recorder: no shim is installed and each bracket in the workload drivers
// is a nil check.

type spanKind uint8

const (
	spanWindow spanKind = iota // root: one measured window (Sim.RunFor)
	spanWorldBuild
	spanNicTx
	spanNicRx
	spanAppTx
	spanAppRx
	spanKTLSWrite
	spanKTLSRx
	spanTCPWrite
	numSpanKinds
)

// spanNames gives each kind its trace name and the layer whose public
// function the span brackets.
var spanNames = [numSpanKinds]struct{ name, layer string }{
	spanWindow:     {"sim.run_window", "netsim"},
	spanWorldBuild: {"world.build", "experiments"},
	spanNicTx:      {"nic.transmit", "nic"},
	spanNicRx:      {"nic.deliver_frame", "nic"},
	spanAppTx:      {"app.pump", "app"},
	spanAppRx:      {"app.receive", "app"},
	spanKTLSWrite:  {"ktls.write", "ktls"},
	spanKTLSRx:     {"ktls.on_readable", "ktls"},
	spanTCPWrite:   {"tcpip.write", "tcpip"},
}

// span is one bracketed call. ev is the simulator's step count when the
// span began — spans that ran inside one simulator event share it. arg is
// kind-specific: payload bytes for nic.transmit, frame bytes for
// nic.deliver_frame.
type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span, -1 at top level
	arg        uint32
	ev         uint32
	start, end int64 // host nanoseconds since the recorder started
}

type recorder struct {
	t0    time.Time
	sim   *netsim.Simulator
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: -1, spans: make([]span, 0, 1<<20)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) begin(k spanKind) int32 { return r.beginArg(k, 0) }

func (r *recorder) beginArg(k spanKind, arg int) int32 {
	if r == nil {
		return -1
	}
	var ev uint64
	if r.sim != nil {
		ev = r.sim.Steps()
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, parent: r.open, arg: uint32(arg), ev: uint32(ev), start: r.now()})
	r.open = id
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = r.now()
	r.open = r.spans[id].parent
}

// devShim brackets the stack→NIC seam.
type devShim struct {
	rec  *recorder
	next tcpip.NetDevice
}

func (d devShim) Transmit(pkt *wire.Packet) {
	sp := d.rec.beginArg(spanNicTx, len(pkt.Payload))
	d.next.Transmit(pkt)
	d.rec.end(sp)
}

// epShim brackets the link→NIC seam. It forwards the wire-latency side
// channel so the NIC behind it sees exactly what it would unshimmed.
type epShim struct {
	rec  *recorder
	next *nic.NIC
}

func (e epShim) DeliverFrame(f wire.Frame) {
	sp := e.rec.beginArg(spanNicRx, len(f))
	e.next.DeliverFrame(f)
	e.rec.end(sp)
}

func (e epShim) NoteWireLatency(d time.Duration) { e.next.NoteWireLatency(d) }

func (r *recorder) shimMachines(sim *netsim.Simulator, ms ...*experiments.Machine) {
	r.sim = sim
	for _, m := range ms {
		m.Stack.SetDevice(devShim{r, m.NIC})
	}
}

// shimPair installs the device and endpoint shims on a pair world.
func (r *recorder) shimPair(w *experiments.PairWorld) {
	if r == nil {
		return
	}
	r.shimMachines(w.Sim, w.Gen, w.Srv)
	w.Link.AttachA(epShim{r, w.Gen.NIC})
	w.Link.AttachB(epShim{r, w.Srv.NIC})
}

// shimStorage installs the shims on a storage world's three machines.
func (r *recorder) shimStorage(w *experiments.StorageWorld) {
	if r == nil {
		return
	}
	r.shimMachines(w.Sim, w.Gen, w.Srv, w.Tgt)
	w.Front.AttachA(epShim{r, w.Gen.NIC})
	w.Front.AttachB(epShim{r, w.Srv.NIC})
	w.Back.AttachA(epShim{r, w.Srv.NIC})
	w.Back.AttachB(epShim{r, w.Tgt.NIC})
}

// shimReadable brackets whatever OnReadable handler the L5P installed on
// the socket — the seam between tcpip's delivery and the record layer.
func (r *recorder) shimReadable(s *tcpip.Socket, k spanKind) {
	if r == nil {
		return
	}
	next := s.OnReadable
	s.OnReadable = func(s *tcpip.Socket) {
		sp := r.begin(k)
		next(s)
		r.end(sp)
	}
}

// kindTotals aggregates the spans of one kind that began at or after a
// cut-off: how many, their summed self time, and their summed arg.
type kindTotals struct {
	n      uint64
	selfNs int64
	argSum uint64
	argPos uint64 // spans with arg > 0 (data-bearing packets)
}

// selfTimes computes per-kind totals over spans starting at or after
// from. Self time is duration minus the duration of direct children.
func selfTimes(spans []span, from int64) [numSpanKinds]kindTotals {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpanKinds]kindTotals
	for i, s := range spans {
		if s.start < from {
			continue
		}
		t := &out[s.kind]
		t.n++
		t.selfNs += s.end - s.start - child[i]
		t.argSum += uint64(s.arg)
		if s.arg > 0 {
			t.argPos++
		}
	}
	return out
}

// maxChromeSpans bounds the written trace: viewers choke on hundreds of
// megabytes, and the first spans of the window show the steady-state
// pattern as well as the last. The ledger is computed from every span.
const maxChromeSpans = 100_000

// writeChrome writes the spans that began at or after from as Chrome
// trace-event JSON (load in chrome://tracing or Perfetto). All spans share
// one track so nesting renders as a flame graph; cat carries the layer.
func writeChrome(w io.Writer, spans []span, from int64, workload string) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","otherData":{"workload":"` + workload + `","spans_recorded":`)
	bw.WriteString(strconv.Itoa(len(spans)))
	bw.WriteString(`},"traceEvents":[`)
	n := 0
	var buf []byte
	for i, s := range spans {
		if s.start < from {
			continue
		}
		if n == maxChromeSpans {
			break
		}
		if n > 0 {
			bw.WriteByte(',')
		}
		n++
		info := spanNames[s.kind]
		buf = buf[:0]
		buf = append(buf, "\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""...)
		buf = append(buf, info.name...)
		buf = append(buf, "\",\"cat\":\""...)
		buf = append(buf, info.layer...)
		buf = append(buf, "\",\"ts\":"...)
		buf = strconv.AppendFloat(buf, float64(s.start-from)/1e3, 'f', 3, 64)
		buf = append(buf, ",\"dur\":"...)
		buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
		buf = append(buf, ",\"args\":{\"id\":"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ",\"event\":"...)
		buf = strconv.AppendUint(buf, uint64(s.ev), 10)
		buf = append(buf, ",\"arg\":"...)
		buf = strconv.AppendUint(buf, uint64(s.arg), 10)
		buf = append(buf, "}}"...)
		bw.Write(buf)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
