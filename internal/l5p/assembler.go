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
// Push and Next cost amortised O(1) per chunk and allocate nothing once the
// queue has grown to the connection's working size, whether the owner pushes
// a batch and then drains or drains after every chunk.
type Assembler struct {
	// HeaderLen and Parse are the protocol's framing, set once by the
	// owner: every message starts with a HeaderLen-byte header, and Parse
	// (always handed exactly that many bytes) validates it and says how
	// long the message is.
	HeaderLen int
	Parse     func(hdr []byte) (offload.MsgLayout, bool)

	// q[head:] are the buffered chunks and size their bytes. Messages leave
	// from the front; Push slides the rest back down once the dead prefix
	// is at least as long, so the queue never marches off its backing array.
	q    []tcpip.Chunk
	head int
	size int

	// total is the front message's length, from its header: parsed once,
	// when the header has arrived, and kept until the message is taken
	// (0: not yet).
	total int
	msg   []tcpip.Chunk // Next's result, reused for every message
	hdr   [32]byte      // header gather buffer (longer headers still work, on the heap)
	err   error
}

// Push queues the next chunk of the stream.
func (a *Assembler) Push(ch tcpip.Chunk) {
	if len(ch.Data) == 0 {
		return
	}
	if a.head > 0 && a.head >= len(a.q)-a.head {
		a.q = a.q[:copy(a.q, a.q[a.head:])]
		a.head = 0
	}
	a.q = append(a.q, ch)
	a.size += len(ch.Data)
}

// Buffered returns how many stream bytes are queued and not yet returned.
func (a *Assembler) Buffered() int { return a.size }

// Next returns the chunks of the next complete message and its length, or
// nil when more bytes are needed. The chunks live in a scratch slice that
// the following Next overwrites. A header Parse rejects — corruption that
// slipped past L4 — means the stream can no longer be cut: that error is
// returned now and by every later call, and nothing more is delivered.
func (a *Assembler) Next() (msg []tcpip.Chunk, total int, err error) {
	if a.err != nil {
		return nil, 0, a.err
	}
	if a.total == 0 {
		if a.size < a.HeaderLen {
			return nil, 0, nil
		}
		hdr := a.hdr[:0]
		for _, ch := range a.q[a.head:] {
			hdr = append(hdr, ch.Data[:min(len(ch.Data), a.HeaderLen-len(hdr))]...)
			if len(hdr) == a.HeaderLen {
				break
			}
		}
		layout, ok := a.Parse(hdr)
		if !ok || layout.Total < a.HeaderLen {
			a.err = fmt.Errorf("malformed message header % x at seq %d", hdr, a.q[a.head].Seq)
			return nil, 0, a.err
		}
		a.total = layout.Total
	}
	if a.size < a.total {
		return nil, 0, nil
	}
	total, a.total = a.total, 0
	return a.take(total), total, nil
}

// take consumes exactly n buffered bytes into the scratch result.
func (a *Assembler) take(n int) []tcpip.Chunk {
	a.size -= n
	out := a.msg[:0]
	for n > 0 {
		ch := a.q[a.head]
		if len(ch.Data) <= n {
			a.head++
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
