package tcpip

// freeList is a bounded stack of arrays their owners are done with, for the
// next connections on the stack to start on: a short connection otherwise
// grows each of its arrays from empty and leaves every size to the
// collector. The arrays held total at most the max their put is given.
type freeList[T any] struct {
	arrs [][]T
	held int // elements, at full capacity, in arrs
}

// get returns a held array at least n long, at its full capacity, or nil.
// Its contents are stale.
func (f *freeList[T]) get(n int) []T {
	last := len(f.arrs) - 1
	for i := last; i >= 0; i-- {
		if b := f.arrs[i]; len(b) >= n {
			f.arrs[i] = f.arrs[last]
			f.arrs[last] = nil
			f.arrs = f.arrs[:last]
			f.held -= len(b)
			return b
		}
	}
	return nil
}

// put offers an array nothing references any more; it is dropped when
// keeping it would hold more than max elements.
func (f *freeList[T]) put(b []T, max int) {
	b = b[:cap(b)]
	if len(b) == 0 || f.held+len(b) > max {
		return
	}
	f.arrs = append(f.arrs, b)
	f.held += len(b)
}

// Spares is a stack's free lists of the arrays receiving grows: chunk
// queues — a socket's receive queue, and an L5P assembler's queue and
// message result above it — and byte buffers, such as an assembler's kept
// bytes. A socket takes its queue from here at its first in-order byte and
// hands it back once the peer's FIN is read; an assembler whose owner
// lends it the stack's Spares does the same with its arrays
// (l5p.Assembler).
type Spares struct {
	chunks freeList[Chunk]
	bytes  freeList[byte]
}

const (
	sparesChunkMin = 8             // chunks in a new array
	sparesChunkMax = 16 << 10      // chunks held (640 KiB)
	sparesByteMax  = defaultRcvBuf // bytes held
)

// Chunks returns an empty chunk queue over a recycled array, or over a new
// one of sparesChunkMin chunks. A socket's queue, an assembler's queue and
// its message result all start out that deep, so an array that changes
// roles as it circulates need not grow.
func (sp *Spares) Chunks() []Chunk {
	if q := sp.chunks.get(0); q != nil {
		return q[:0]
	}
	return make([]Chunk, 0, sparesChunkMin)
}

// PutChunks takes back a chunk array nothing reads any more. Its chunks are
// cleared, so it keeps no received bytes alive.
func (sp *Spares) PutChunks(q []Chunk) {
	clear(q[:cap(q)])
	sp.chunks.put(q, sparesChunkMax)
}

// Bytes returns an empty byte buffer over a recycled array, or nil.
func (sp *Spares) Bytes() []byte { return sp.bytes.get(0)[:0] }

// PutBytes takes back a byte buffer nothing reads any more.
func (sp *Spares) PutBytes(b []byte) { sp.bytes.put(b, sparesByteMax) }
