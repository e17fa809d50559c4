package wire

// FramePool recycles serialized frames so the per-packet hot path stops
// allocating: the transmitting NIC gets a frame, the link may clone through
// it (duplication, corruption, CE re-marks), and whoever consumes the frame
// — the receiving NIC after delivery, or the link itself on a drop — puts
// it back. Frames are binned by capacity class so a put frame is reusable
// for any request that rounds up to the same class.
//
// The pool is deliberately unsynchronized: every Get/Put happens inside an
// event callback on the simulator's one goroutine, so the virtual clock is
// the lock.
// The determinism contract is carried by MarshalHeaders (or PutHeaders and
// PutTCPChecksum) writing every header byte and the NIC copying the
// payload region in full, so a recycled buffer produces bytes identical to
// a fresh one.
//
// All methods are nil-receiver safe: a nil pool degrades to plain
// allocation, which keeps call sites unconditional and lets worlds opt in.
type FramePool struct {
	classes [poolClasses][]Frame
	stats   FramePoolStats
}

// FramePoolStats counts pool traffic. Gets-Puts is the number of frames
// currently in flight; soaks assert it returns to zero when a world
// quiesces (no frame leaked into retained state).
type FramePoolStats struct {
	Gets uint64 // frames handed out (fresh or recycled)
	Puts uint64 // frames returned
	News uint64 // Gets that had to allocate (class empty or oversize)
}

const (
	poolMinClass = 256      // smallest class capacity
	poolClasses  = 7        // 256 … 16384
	poolMaxCap   = 16 << 10 // largest pooled capacity
	poolMaxFree  = 512      // per-class free-list bound
)

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// classFor returns the class index whose capacity holds n bytes, or -1 if
// n exceeds the largest class (such frames are plain-allocated).
func classFor(n int) int {
	c, cap := 0, poolMinClass
	for cap < n {
		c++
		cap <<= 1
	}
	if c >= poolClasses {
		return -1
	}
	return c
}

// Get returns a frame of length n, recycled when a fitting one is free.
// The contents are arbitrary; callers must write every byte they send.
func (p *FramePool) Get(n int) Frame {
	if p == nil {
		return make(Frame, n)
	}
	p.stats.Gets++
	c := classFor(n)
	if c >= 0 {
		if free := p.classes[c]; len(free) > 0 {
			f := free[len(free)-1]
			free[len(free)-1] = nil
			p.classes[c] = free[:len(free)-1]
			return f[:n]
		}
		p.stats.News++
		return make(Frame, n, poolMinClass<<c)
	}
	p.stats.News++
	return make(Frame, n)
}

// Put returns a frame to the pool. Frames whose capacity does not match a
// class (hand-built by tests, oversize) are counted and dropped, so leak
// accounting still balances.
func (p *FramePool) Put(f Frame) {
	if p == nil || f == nil {
		return
	}
	p.stats.Puts++
	c := classFor(cap(f))
	if c < 0 || cap(f) != poolMinClass<<c || len(p.classes[c]) >= poolMaxFree {
		return
	}
	p.classes[c] = append(p.classes[c], f)
}

// Clone returns a pool-backed copy of f — what links use for deliveries
// that must not alias the original (duplication, corruption, CE marks).
func (p *FramePool) Clone(f Frame) Frame {
	if p == nil {
		return f.Clone()
	}
	c := p.Get(len(f))
	copy(c, f)
	return c
}

// InUse returns the number of frames handed out and not yet returned.
func (p *FramePool) InUse() uint64 {
	if p == nil {
		return 0
	}
	return p.stats.Gets - p.stats.Puts
}

// Stats returns a snapshot of the pool counters.
func (p *FramePool) Stats() FramePoolStats {
	if p == nil {
		return FramePoolStats{}
	}
	return p.stats
}

// StatsPtr returns the live counters for telemetry registration.
func (p *FramePool) StatsPtr() *FramePoolStats { return &p.stats }
