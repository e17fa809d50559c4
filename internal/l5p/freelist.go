package l5p

// FreeList is a bounded stack of message buffers their owner has finished
// with. nvmetcp's send queue builds each capsule in a buffer from it, and
// the capsule waits there for send space; once the transport has copied
// it into its send ring the buffer goes back, so a queue at steady state
// allocates no capsule buffers. Buffers come back holding the previous
// message, not zeros. (A TLS record needs none: ktls builds it in the send
// ring itself.)
type FreeList struct {
	bufs [][]byte
}

// freeListMax bounds a FreeList; more than that is left to the collector.
// What is free at one moment is a burst's worth of capsules — the rest of
// the send window is in the socket.
const freeListMax = 32

// Get returns an n-byte buffer: the one put back last if it is large enough
// (an L5P's bulk messages are one size), otherwise a new one.
func (f *FreeList) Get(n int) []byte {
	if last := len(f.bufs) - 1; last >= 0 {
		b := f.bufs[last]
		f.bufs[last] = nil
		f.bufs = f.bufs[:last]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Put takes back a buffer nothing will read again.
func (f *FreeList) Put(b []byte) {
	if len(f.bufs) < freeListMax {
		f.bufs = append(f.bufs, b)
	}
}
