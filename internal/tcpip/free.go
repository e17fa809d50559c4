package tcpip

// freeList is a bounded stack of arrays their owners are done with, for the
// next connections on the stack to start on: a short connection otherwise
// grows each of its arrays from empty and leaves every size to the
// collector. The arrays held total at most the max their put is given.
type freeList[T any] struct {
	arrs [][]T
	held int // elements, at full capacity, in arrs
}

// get returns the last array put that is at least n long, at its full
// capacity, or nil. Its contents are stale.
func (f *freeList[T]) get(n int) []T {
	for i := len(f.arrs) - 1; i >= 0; i-- {
		if len(f.arrs[i]) >= n {
			return f.take(i)
		}
	}
	return nil
}

// fit is get for the smallest array at least n long, so that a request
// that any array serves leaves the long ones to those that need them.
func (f *freeList[T]) fit(n int) []T {
	best := -1
	for i, b := range f.arrs {
		if len(b) >= n && (best < 0 || len(b) < len(f.arrs[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return f.take(best)
}

// take removes and returns arrs[i].
func (f *freeList[T]) take(i int) []T {
	last := len(f.arrs) - 1
	b := f.arrs[i]
	f.arrs[i] = f.arrs[last]
	f.arrs[last] = nil
	f.arrs = f.arrs[:last]
	f.held -= len(b)
	return b
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
// queues — a socket's receive queue and out-of-order list, and an L5P
// assembler's queue and message result above it — and byte buffers, such
// as a socket's receive arena and an assembler's kept bytes. A socket takes
// its arrays from here when it first needs them and hands them back once
// the peer's FIN is read and its reader has returned; an assembler whose
// owner lends it the stack's Spares does the same with its arrays
// (l5p.Assembler). The layers above keep what their own connections hand
// back here too, one Lot per type (LotOf), as the socket does its rcvKept.
type Spares struct {
	chunks freeList[Chunk]
	bytes  freeList[byte]
	lots   []any // a *Lot[T] for each T a layer above asked for
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

// Bytes returns an empty byte buffer over the shortest recycled array at
// least n long, or nil when none is held.
func (sp *Spares) Bytes(n int) []byte { return sp.bytes.fit(n)[:0] }

// PutBytes takes back a byte buffer nothing reads any more.
func (sp *Spares) PutBytes(b []byte) {
	if poisonSpares {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	sp.bytes.put(b, sparesByteMax)
}

// poisonSpares is a test hook that no exported name reaches: set, it makes
// PutBytes fill every buffer handed back with 0xA5, so that bytes handed
// back while something still reads them show up as the pattern.
var poisonSpares bool

// Lot is a bounded stack of one type of object — an offload context, a
// record index — that connections of a layer above hand back to their
// stack for its next connections to take.
type Lot[T any] struct {
	held []T
}

// LotOf returns the stack's Lot of T, made at the first call. The type
// names the lot: ktls's contexts and l5p's record indexes are different
// types, so no layer sees another's, and the stack, which every connection
// reaches, keeps them instead of package state.
func LotOf[T any](sp *Spares) *Lot[T] {
	for _, l := range sp.lots {
		if lot, ok := l.(*Lot[T]); ok {
			return lot
		}
	}
	lot := new(Lot[T])
	sp.lots = append(sp.lots, lot)
	return lot
}

// Take returns the object handed back last, or false when none is held.
// Its contents are the previous owner's.
func (l *Lot[T]) Take() (x T, ok bool) {
	last := len(l.held) - 1
	if last < 0 {
		return x, false
	}
	x = l.held[last]
	var zero T
	l.held[last] = zero
	l.held = l.held[:last]
	return x, true
}

// Put takes back an object nothing references any more; it is dropped when
// the lot already holds max.
func (l *Lot[T]) Put(x T, max int) {
	if len(l.held) < max {
		l.held = append(l.held, x)
	}
}
