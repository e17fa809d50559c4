package l5p

// FreeList is a bounded stack of message buffers their owner has finished
// with. An L5P's transmit side takes the next message's buffer from it and
// puts back what the transport has copied or the TxRetainer has released,
// so a connection at steady state allocates no message buffers. Buffers
// come back holding the previous message, not zeros.
type FreeList struct {
	bufs [][]byte
}

// freeListMax bounds a FreeList; more than that is left to the collector.
// What is free at one moment is a burst's worth of messages — the rest of
// the send window is in the socket or retained.
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
