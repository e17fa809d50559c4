package offload

import (
	"math/rand"
	"testing"

	"repro/internal/meta"
)

// sparseFeeder models the enclosing engine's emissions: the toy-protocol
// stream is chopped into "records" of recSize plaintext bytes whose wire
// coordinates skip `gap` framing bytes between records, then each record
// body is emitted in pieces.
type sparseFeeder struct {
	data    []byte
	recSize int
	gap     uint32
	base    uint32
}

// emissions returns (wireSeq, data) pieces with per-piece contiguity, as
// the TLS ops would emit them; drop lets the caller kill whole records.
type emission struct {
	seq        uint32
	data       []byte
	contiguous bool
}

func (f *sparseFeeder) emissions(pieceSize int, dropRecord func(i int) bool) []emission {
	var out []emission
	wire := f.base
	contig := true // first emission may claim contiguity; virgin accepts it
	for off, rec := 0, 0; off < len(f.data); rec++ {
		n := f.recSize
		if off+n > len(f.data) {
			n = len(f.data) - off
		}
		if dropRecord != nil && dropRecord(rec) {
			off += n
			wire += uint32(n) + f.gap
			contig = false // the skipped record breaks the plaintext stream
			continue
		}
		for p := 0; p < n; p += pieceSize {
			m := pieceSize
			if p+m > n {
				m = n - p
			}
			out = append(out, emission{
				seq:        wire + uint32(p),
				data:       append([]byte(nil), f.data[off+p:off+p+m]...),
				contiguous: contig,
			})
			contig = true
		}
		off += n
		wire += uint32(n) + f.gap
	}
	return out
}

func TestSparseInSequenceAcrossFramingGaps(t *testing.T) {
	// Records of 160 plaintext bytes separated by 21 wire bytes of framing:
	// length arithmetic over wire seqs is wrong, contiguity flags are not.
	ops := &tpOps{t: t}
	st := buildStream(0, repeatSizes(100, 12), 50)
	f := &sparseFeeder{data: st.data, recSize: 160, gap: 21, base: 7000}
	e := NewSparseRxEngine(ops, nil)
	for _, em := range f.emissions(37, nil) {
		flags := e.Process(em.seq, em.data, em.contiguous)
		if !flags.Has(meta.TLSOffloaded) {
			t.Fatalf("contiguous emission at %d not processed", em.seq)
		}
	}
	if ops.completed != 12 || ops.failed != 0 {
		t.Errorf("completed=%d failed=%d, want 12/0", ops.completed, ops.failed)
	}
}

type sparseConfirm struct {
	st *stream
	e  *RxEngine
	// wireOf maps stream offsets to wire seqs (supplied by the test).
	wireOf func(streamOff int) uint32
	// queue of pending requests answered on demand.
	pending []uint32
}

func (c *sparseConfirm) request(seq uint32) { c.pending = append(c.pending, seq) }

// answer resolves all pending requests against ground truth.
func (c *sparseConfirm) answer() {
	for _, seq := range c.pending {
		idx, ok := uint64(0), false
		for off, i := range c.st.boundaries {
			if c.wireOf(seqSub(off, c.st.base)) == seq {
				idx, ok = i, true
				break
			}
		}
		c.e.ResyncResponse(seq, ok, idx)
	}
	c.pending = nil
}

func TestSparseRecoveryAfterDiscontinuity(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(0, repeatSizes(120, 30), 51)
	const recSize, gap, base = 200, 21, 9000
	f := &sparseFeeder{data: st.data, recSize: recSize, gap: gap, base: base}

	// Wire seq of a stream offset under this framing.
	wireOf := func(off int) uint32 {
		return uint32(base + off + (off/recSize)*gap)
	}
	conf := &sparseConfirm{st: st, wireOf: wireOf}
	e := NewSparseRxEngine(ops, resyncFunc(conf.request))
	conf.e = e

	// Drop records 3 and 4 (a discontinuity in the emitted stream).
	drop := func(i int) bool { return i == 3 || i == 4 }
	processed := 0
	for _, em := range f.emissions(53, drop) {
		flags := e.Process(em.seq, em.data, em.contiguous)
		conf.answer()
		if flags.Has(meta.TLSOffloaded) {
			processed++
		}
	}
	if e.Stats.ResyncRequests == 0 {
		t.Fatal("no speculative search after the discontinuity")
	}
	if e.Stats.ResyncConfirms == 0 {
		t.Fatalf("confirmation never accepted (state %s)", e.State())
	}
	if e.State() != "offloading" {
		t.Fatalf("engine did not resume: %s", e.State())
	}
	if ops.failed != 0 {
		t.Errorf("%d integrity failures on clean data", ops.failed)
	}
	if processed == 0 {
		t.Error("nothing processed after recovery")
	}
}

func TestSparseRejectedCandidateResumesSearch(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(0, repeatSizes(150, 10), 52)
	f := &sparseFeeder{data: st.data, recSize: 180, gap: 21, base: 100}
	var reqs []uint32
	e := NewSparseRxEngine(ops, resyncFunc(func(seq uint32) { reqs = append(reqs, seq) }))
	ems := f.emissions(60, func(i int) bool { return i == 1 })
	for i, em := range ems {
		e.Process(em.seq, em.data, em.contiguous)
		if len(reqs) > 0 && i < len(ems)-1 {
			// Reject the first candidate: the engine must keep searching
			// and eventually find (and re-request) another.
			e.ResyncResponse(reqs[0], false, 0)
			reqs = reqs[1:]
			break
		}
	}
	if e.Stats.ResyncRejects != 1 {
		t.Fatalf("ResyncRejects=%d", e.Stats.ResyncRejects)
	}
	if e.State() == "offloading" {
		t.Fatal("engine resumed despite rejection")
	}
}

func TestSparseRandomDrops(t *testing.T) {
	// Property: random record drops never cause integrity failures or ops
	// continuity violations, and with eventual confirmations the engine
	// ends up offloading again.
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := &tpOps{t: t}
		st := buildStream(0, repeatSizes(80+rng.Intn(200), 40), seed)
		recSize := 120 + rng.Intn(300)
		const gap = 21
		f := &sparseFeeder{data: st.data, recSize: recSize, gap: gap, base: uint32(rng.Intn(1 << 28))}
		wireOf := func(off int) uint32 {
			return f.base + uint32(off+(off/recSize)*gap)
		}
		conf := &sparseConfirm{st: st, wireOf: wireOf}
		e := NewSparseRxEngine(ops, resyncFunc(conf.request))
		conf.e = e
		dropped := map[int]bool{}
		drop := func(i int) bool {
			if _, seen := dropped[i]; !seen {
				dropped[i] = rng.Float64() < 0.1
			}
			return dropped[i]
		}
		for _, em := range f.emissions(1+rng.Intn(200), drop) {
			e.Process(em.seq, em.data, em.contiguous)
			if rng.Intn(3) == 0 {
				conf.answer()
			}
		}
		conf.answer()
		if ops.failed != 0 {
			t.Errorf("seed %d: %d integrity failures", seed, ops.failed)
		}
	}
}
