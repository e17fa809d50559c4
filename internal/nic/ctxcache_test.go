package nic

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// lruModel is the context cache as a container/list LRU, most recently used
// at the front: a miss pushes the key to the front and then evicts from the
// back while the list is over capacity.
type lruModel struct {
	cap                         int
	l                           *list.List
	m                           map[cacheKey]*list.Element
	hits, misses, invalidations uint64
	evicted                     []cacheKey
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{cap: capacity, l: list.New(), m: make(map[cacheKey]*list.Element)}
}

func (m *lruModel) touch(k cacheKey) {
	if el, ok := m.m[k]; ok {
		m.l.MoveToFront(el)
		m.hits++
		return
	}
	m.misses++
	m.m[k] = m.l.PushFront(k)
	for m.l.Len() > m.cap {
		back := m.l.Back()
		m.evicted = append(m.evicted, back.Value.(cacheKey))
		delete(m.m, back.Value.(cacheKey))
		m.l.Remove(back)
	}
}

func (m *lruModel) drop(k cacheKey) {
	if el, ok := m.m[k]; ok {
		m.l.Remove(el)
		delete(m.m, k)
	}
}

func (m *lruModel) reset() {
	m.l.Init()
	clear(m.m)
}

func (m *lruModel) order() []cacheKey {
	var out []cacheKey
	for el := m.l.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(cacheKey))
	}
	return out
}

// order walks the slot LRU from most to least recently used.
func (c *ctxCache) order() []cacheKey {
	var out []cacheKey
	for i := c.head; i >= 0; i = c.slots[i].next {
		out = append(out, c.slots[i].key)
	}
	return out
}

// TestContextCacheMatchesModel drives the NIC's context cache and a
// container/list LRU with the same random touches, detaches and firmware
// invalidations (the NIC's chaos generator decides those; the model follows
// its counter), and requires the same hits, misses and evictions, the same
// evicted keys in the same order, the same length and the same recency
// order after every step. Evictions are read back from the ledger: a miss
// charges one context DMA, an eviction's write-back another.
func TestContextCacheMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			model := cycles.DefaultModel()
			lg := &cycles.Ledger{}
			stack := tcpip.NewStack(netsim.New(), [4]byte{10, 0, 0, 1}, &model, lg)
			n := New(stack, func(wire.Frame) {}, Config{CtxCacheFlows: capacity,
				Chaos: &ChaosConfig{Seed: seed, CtxInvalidateProb: 0.01}})
			q := n.Queue(0)
			ref := newLRUModel(capacity)
			rng := rand.New(rand.NewSource(seed))
			keys := make([]cacheKey, 3*capacity+2)
			for i := range keys {
				keys[i] = cacheKey{flow: wire.FlowID{Src: wire.Addr{Port: uint16(i / 2)}}, rx: i%2 == 1}
			}
			var evicted []cacheKey
			for step := 0; step < 4000; step++ {
				k := keys[rng.Intn(len(keys))]
				before := slices.Clone(n.cache.order())
				if rng.Intn(4) == 0 {
					if k.rx {
						n.DetachRx(k.flow)
					} else {
						n.DetachTx(k.flow)
					}
					ref.drop(k)
				} else {
					n.cacheTouch(q, k)
					if q.Stats.CtxInvalidations != ref.invalidations {
						ref.invalidations++
						ref.reset()
						before = nil
					}
					ref.touch(k)
					// What left the cache, other than k itself, was evicted.
					after := n.cache.order()
					for _, b := range before {
						if b != k && !slices.Contains(after, b) {
							evicted = append(evicted, b)
						}
					}
				}
				wb := lg.PCIeBytes(cycles.CtxDMA)/ctxBytes - q.Stats.CtxCacheMiss
				switch {
				case q.Stats.CtxCacheHits != ref.hits || q.Stats.CtxCacheMiss != ref.misses:
					t.Fatalf("cap %d seed %d step %d: %d hits %d misses, model %d %d",
						capacity, seed, step, q.Stats.CtxCacheHits, q.Stats.CtxCacheMiss, ref.hits, ref.misses)
				case wb != uint64(len(ref.evicted)) || !slices.Equal(evicted, ref.evicted):
					t.Fatalf("cap %d seed %d step %d: %d write-backs evicting %v, model %v",
						capacity, seed, step, wb, evicted, ref.evicted)
				case n.CacheLen() != ref.l.Len() || !slices.Equal(n.cache.order(), ref.order()):
					t.Fatalf("cap %d seed %d step %d: cache %v, model %v",
						capacity, seed, step, n.cache.order(), ref.order())
				}
			}
			if ref.invalidations == 0 || len(ref.evicted) == 0 || ref.hits == 0 {
				t.Errorf("cap %d seed %d: %d invalidations, %d evictions, %d hits: a path went untested",
					capacity, seed, ref.invalidations, len(ref.evicted), ref.hits)
			}
		}
	}
}
