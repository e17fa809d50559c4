package l5p

import (
	"testing"

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
