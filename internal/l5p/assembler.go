package l5p

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/meta"
	"repro/internal/offload"
	"repro/internal/tcpip"
)

// Assembler cuts the in-order stream of annotated chunks a transport
// delivers into complete L5P messages. Chunk boundaries, wire sequence
// numbers and verdict flags survive (a chunk that straddles two messages is
// split), because the L5P decides per message, from its chunks' flags,
// which work the NIC already did.
//
// Received bytes are borrowed: a pushed chunk's bytes need only stay valid
// until the owner's receive callback returns, provided the owner calls Next
// until it returns no message before that. When Next must wait for more
// bytes, it copies the chunks pushed since it last waited into one buffer
// that the Assembler reuses, so the bytes that outlive the callback are
// copied once and nothing else is. A message Next returns is valid until
// the next call to Next or Release.
//
// Push and Next cost amortised O(1) per chunk and allocate nothing once the
// queue and the buffer have grown to the connection's working size, whether
// the owner pushes a batch and then drains or drains after every chunk. An
// owner that lends the assembler its stack's Spares gets arrays that
// earlier connections grew, so a short connection grows nothing either.
type Assembler struct {
	// HeaderLen and Parse are the protocol's framing, set once by the
	// owner: every message starts with a HeaderLen-byte header, and Parse
	// (always handed exactly that many bytes) validates it and says how
	// long the message is.
	HeaderLen int
	Parse     func(hdr []byte) (offload.MsgLayout, bool)
	// Spares, if the owner sets it, lends the assembler its arrays: the
	// first Push takes the queue, the message result and the kept-byte
	// buffer from it, and Release or a header error hands them back.
	Spares *tcpip.Spares

	// q[head:] are the buffered chunks and size the bytes pushed and not
	// yet returned. Messages leave from the front; Push slides the rest
	// back down once the dead prefix is at least as long, so the queue
	// never marches off its backing array.
	q    []tcpip.Chunk
	head int
	size int

	// The first kept chunks of q[head:] live back to back from buf[0]; the
	// chunks behind them were pushed since the last wait and still borrow
	// the pusher's memory. Kept chunks all belong to the front message,
	// which take consumes whole, so buf starts over at the first wait with
	// nothing kept and its bytes never move. buf's spare capacity also
	// gathers a header that straddles chunks.
	buf  []byte
	kept int

	// total is the front message's length, from its header: parsed once,
	// when the header has arrived, and kept until the message is taken
	// (0: not yet).
	total int
	msg   []tcpip.Chunk // Next's result, reused for every message
	err   error
}

// Push queues the next chunk of the stream, borrowing its bytes (see
// Assembler).
//
//simlint:hotpath
func (a *Assembler) Push(ch tcpip.Chunk) {
	if len(ch.Data) == 0 {
		return
	}
	a.size += len(ch.Data)
	if a.err != nil {
		return // the stream is dead: count the bytes, keep no reference
	}
	if a.head > 0 && a.head >= len(a.q)-a.head {
		a.q = a.q[:copy(a.q, a.q[a.head:])]
		a.head = 0
	}
	n := len(a.q)
	if cap(a.q) == 0 && a.Spares != nil {
		a.q, a.msg, a.buf = a.Spares.Chunks(), a.Spares.Chunks(), a.Spares.Bytes(0)
	}
	a.q = slices.Grow(a.q, 1)[:n+1] // grows to the working depth once
	a.q[n] = ch
}

// Buffered returns how many stream bytes were pushed and not yet returned.
func (a *Assembler) Buffered() int { return a.size }

// Next returns the chunks of the next complete message and its length, or
// nil when more bytes are needed. The chunks live in a scratch slice that
// the following Next overwrites. A header Parse rejects — corruption that
// slipped past L4 — means the stream can no longer be cut: that error is
// returned now and by every later call, nothing more is delivered, and the
// queue is dropped.
func (a *Assembler) Next() (msg []tcpip.Chunk, total int, err error) {
	if a.err != nil {
		return nil, 0, a.err
	}
	if a.total == 0 {
		if a.size < a.HeaderLen {
			a.retain()
			return nil, 0, nil
		}
		hdr := a.header()
		layout, ok := a.Parse(hdr)
		if !ok || layout.Total < a.HeaderLen {
			a.err = fmt.Errorf("malformed message header % x at seq %d", hdr, a.q[a.head].Seq)
			a.drop()
			return nil, 0, a.err
		}
		a.total = layout.Total
	}
	if a.size < a.total {
		a.retain()
		return nil, 0, nil
	}
	total, a.total = a.total, 0
	return a.take(total), total, nil
}

// Release hands the arrays back to Spares once the owner's stream is over:
// bytes of a message it ended inside are dropped with them, so the
// assembler holds nothing, buffers nothing and, pushed to again, borrows
// anew. A header error stays sticky.
func (a *Assembler) Release() {
	a.drop()
	a.size, a.total = 0, 0
}

// drop forgets the queue, the message result and the kept bytes, handing
// their arrays back to Spares if the owner lent them.
func (a *Assembler) drop() {
	if a.Spares != nil {
		a.Spares.PutChunks(a.q)
		a.Spares.PutChunks(a.msg)
		a.Spares.PutBytes(a.buf)
	}
	a.q, a.head, a.msg, a.buf, a.kept = nil, 0, nil, nil, 0
}

// header returns the front message's HeaderLen header bytes: in place when
// the first chunk holds them, else gathered into buf's spare capacity.
func (a *Assembler) header() []byte {
	if first := a.q[a.head].Data; len(first) >= a.HeaderLen {
		return first[:a.HeaderLen:a.HeaderLen]
	}
	a.buf = slices.Grow(a.buf, a.HeaderLen)
	hdr := a.buf[len(a.buf):len(a.buf)]
	for _, ch := range a.q[a.head:] {
		hdr = append(hdr, ch.Data[:min(len(ch.Data), a.HeaderLen-len(hdr))]...)
		if len(hdr) == a.HeaderLen {
			break
		}
	}
	return hdr
}

// retain copies the chunks pushed since the last wait to the end of buf and
// points them there, so that nothing queued borrows the pusher's memory. A
// chunk is copied at most once, however long its message takes to arrive.
func (a *Assembler) retain() {
	fresh := a.q[a.head+a.kept:]
	if len(fresh) == 0 {
		return
	}
	if a.kept == 0 {
		a.buf = a.buf[:0] // no queued byte lives in it
	}
	n := 0
	for _, ch := range fresh {
		n += len(ch.Data)
	}
	// Growing moves buf's bytes to a new array; the kept chunks keep
	// pointing at the old one, which holds the same bytes and is never
	// written again.
	a.buf = slices.Grow(a.buf, n)
	for i := range fresh {
		off := len(a.buf)
		a.buf = append(a.buf, fresh[i].Data...)
		fresh[i].Data = a.buf[off:len(a.buf):len(a.buf)]
	}
	a.kept += len(fresh)
}

// take consumes exactly n buffered bytes into the scratch result.
func (a *Assembler) take(n int) []tcpip.Chunk {
	a.size -= n
	out := a.msg[:0]
	for n > 0 {
		ch := a.q[a.head]
		if len(ch.Data) <= n {
			a.head++
			if a.kept > 0 {
				a.kept--
			}
		} else {
			a.q[a.head] = tcpip.Chunk{Seq: ch.Seq + uint32(n), Data: ch.Data[n:], Flags: ch.Flags}
			ch.Data = ch.Data[:n]
		}
		out = append(out, ch)
		n -= len(ch.Data)
	}
	a.msg = out
	return out
}

// Clip walks the part of a message inside its bytes [lo, hi): for every
// chunk that overlaps the range it yields the overlap's offset in the
// message and the overlap as a chunk of its own — Seq advanced to its first
// byte, Flags inherited.
func Clip(msg []tcpip.Chunk, lo, hi int) iter.Seq2[int, tcpip.Chunk] {
	return func(yield func(int, tcpip.Chunk) bool) {
		off := 0
		for _, ch := range msg {
			start := off
			off += len(ch.Data)
			from, to := max(start, lo), min(off, hi)
			if from >= to {
				continue
			}
			ch.Seq += uint32(from - start)
			ch.Data = ch.Data[from-start : to-start]
			if !yield(from, ch) {
				return
			}
		}
	}
}

// AppendRange appends message bytes [lo, hi) to dst, growing it at most
// once.
func AppendRange(dst []byte, msg []tcpip.Chunk, lo, hi int) []byte {
	dst = slices.Grow(dst, max(hi-lo, 0))
	for _, part := range Clip(msg, lo, hi) {
		dst = append(dst, part.Data...)
	}
	return dst
}

// Verdict folds a message's per-chunk NIC verdicts: all holds the flags
// every chunk carries, some those at least one does.
func Verdict(msg []tcpip.Chunk) (all, some meta.RxFlags) {
	all = ^meta.RxFlags(0)
	for _, ch := range msg {
		all &= ch.Flags
		some |= ch.Flags
	}
	return all, some
}
