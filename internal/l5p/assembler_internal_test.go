package l5p

import (
	"testing"
	"unsafe"

	"repro/internal/offload"
	"repro/internal/tcpip"
)

// TestAssemblerDropsQueueOnError: once a header is rejected nothing will be
// read again, so the assembler lets go of every chunk, message and buffer
// it held — none may keep a recycled frame's memory reachable — and later
// pushes only count their bytes.
func TestAssemblerDropsQueueOnError(t *testing.T) {
	a := Assembler{HeaderLen: 2, Parse: func(h []byte) (offload.MsgLayout, bool) {
		return offload.MsgLayout{Total: int(h[1])}, h[0] == 1
	}}
	a.Push(tcpip.Chunk{Seq: 10, Data: []byte{1, 5, 'a'}})
	a.Push(tcpip.Chunk{Seq: 13, Data: []byte{'b'}})
	if msg, _, err := a.Next(); msg != nil || err != nil { // waits: retains both chunks
		t.Fatalf("3 of 5 bytes: msg=%v err=%v", msg, err)
	}
	a.Push(tcpip.Chunk{Seq: 14, Data: []byte{'c', 9, 9, 'x'}})
	if msg, _, err := a.Next(); len(msg) != 3 || err != nil {
		t.Fatalf("first message: %d chunks, err %v", len(msg), err)
	}
	if _, _, err := a.Next(); err == nil {
		t.Fatal("header 09 09 accepted")
	}
	a.Push(tcpip.Chunk{Seq: 18, Data: []byte{1, 2}})
	if a.q != nil || a.msg != nil || a.buf != nil || a.head != 0 || a.kept != 0 {
		t.Errorf("after the error: queue %d chunks (head %d, kept %d), message %d chunks, buffer %d bytes, want all dropped",
			len(a.q), a.head, a.kept, len(a.msg), cap(a.buf))
	}
	if a.Buffered() != 5 {
		t.Errorf("Buffered = %d, want the 3 stranded bytes and the 2 pushed since", a.Buffered())
	}
}

// TestAssemblerReleaseHandsArraysBack: an assembler lent its stack's
// spares takes its arrays from them at the first push and hands them back
// when its owner's stream ends, with nothing buffered or inside a message,
// or at a header error.
func TestAssemblerReleaseHandsArraysBack(t *testing.T) {
	var sp tcpip.Spares
	parse := func(h []byte) (offload.MsgLayout, bool) {
		return offload.MsgLayout{Total: int(h[1])}, h[0] == 1
	}
	// arrays identifies what a holds, and back whether the spares now
	// hold exactly that: they give it out again.
	arrays := func(a *Assembler) [3]unsafe.Pointer {
		return [3]unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(a.q[:1])),
			unsafe.Pointer(unsafe.SliceData(a.msg[:1])), unsafe.Pointer(unsafe.SliceData(a.buf[:1]))}
	}
	back := func(want [3]unsafe.Pointer) bool {
		q, msg, buf := sp.Chunks(), sp.Chunks(), sp.Bytes(0)
		got := map[unsafe.Pointer]bool{unsafe.Pointer(unsafe.SliceData(q[:1])): true,
			unsafe.Pointer(unsafe.SliceData(msg[:1])): true}
		defer func() { sp.PutChunks(q); sp.PutChunks(msg); sp.PutBytes(buf) }()
		return got[want[0]] && got[want[1]] && unsafe.Pointer(unsafe.SliceData(buf[:1])) == want[2]
	}

	a := Assembler{HeaderLen: 2, Parse: parse, Spares: &sp}
	a.Push(tcpip.Chunk{Seq: 10, Data: []byte{1, 4, 'a'}})
	if msg, _, _ := a.Next(); msg != nil {
		t.Fatal("3 of 4 bytes cut into a message")
	}
	a.Push(tcpip.Chunk{Seq: 13, Data: []byte{'b'}})
	if msg, _, _ := a.Next(); len(msg) != 2 {
		t.Fatalf("message of %d chunks, want 2", len(msg))
	}
	held := arrays(&a)
	a.Release()
	if a.q != nil || a.msg != nil || a.buf != nil {
		t.Fatalf("after Release: queue %d, message %d, buffer %d held", cap(a.q), cap(a.msg), cap(a.buf))
	}
	if !back(held) {
		t.Error("Release did not hand the arrays to the spares")
	}

	b := Assembler{HeaderLen: 2, Parse: parse, Spares: &sp}
	b.Push(tcpip.Chunk{Seq: 20, Data: []byte{7}})
	b.Next()
	if arrays(&b) != held {
		t.Error("the next assembler did not borrow the released arrays")
	}
	b.Release() // a header byte is stranded: it goes with the arrays
	if b.q != nil || b.msg != nil || b.buf != nil || b.Buffered() != 0 || !back(held) {
		t.Fatalf("a stream that ended inside a message: %d bytes buffered, arrays handed back %v",
			b.Buffered(), back(held))
	}

	c := Assembler{HeaderLen: 2, Parse: parse, Spares: &sp}
	c.Push(tcpip.Chunk{Seq: 30, Data: []byte{7, 9}})
	if _, _, err := c.Next(); err == nil {
		t.Fatal("header 07 09 of the wrong type accepted")
	}
	if c.q != nil || c.msg != nil || c.buf != nil || !back(held) {
		t.Error("the header error did not hand the arrays to the spares")
	}
}
