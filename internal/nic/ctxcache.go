package nic

import "repro/internal/wire"

// cacheKey names one flow context: a flow and a direction.
type cacheKey struct {
	flow wire.FlowID
	rx   bool
}

// ctxCache is the LRU order of the on-NIC context cache. Its entries are a
// fixed array of slots, one per context the cache holds, doubly linked by
// index with the most recently used first: a miss in a full cache reuses
// the least recently used context's slot, so nothing is allocated per miss.
type ctxCache struct {
	slots      []cacheSlot
	index      map[cacheKey]int32 // the slot holding each cached key
	head, tail int32              // most and least recently used; -1 when empty
	used       int32              // slots[used:] are unused since the last reset
	free       int32              // dropped slots, linked through next; -1 when none
}

type cacheSlot struct {
	key        cacheKey
	prev, next int32
}

// init sizes the cache for n contexts and empties it.
func (c *ctxCache) init(n int) {
	c.slots = make([]cacheSlot, n)
	c.index = make(map[cacheKey]int32, n)
	c.reset()
}

// reset empties the cache: the firmware reset of ChaosConfig.CtxInvalidateProb.
func (c *ctxCache) reset() {
	clear(c.index)
	c.head, c.tail, c.used, c.free = -1, -1, 0, -1
}

// hit reports whether k is cached and, if so, makes it the most recently
// used.
func (c *ctxCache) hit(k cacheKey) bool {
	i, ok := c.index[k]
	if ok && i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
	return ok
}

// insert caches k, which must not be cached, as the most recently used. In
// a full cache it first evicts the least recently used key, and says so.
func (c *ctxCache) insert(k cacheKey) (evicted bool) {
	var i int32
	switch {
	case c.free >= 0:
		i, c.free = c.free, c.slots[c.free].next
	case int(c.used) < len(c.slots):
		i = c.used
		c.used++
	default:
		i, evicted = c.tail, true
		c.unlink(i)
		delete(c.index, c.slots[i].key)
	}
	c.slots[i].key = k
	c.index[k] = i
	c.pushFront(i)
	return evicted
}

// drop forgets k if it is cached.
func (c *ctxCache) drop(k cacheKey) {
	i, ok := c.index[k]
	if !ok {
		return
	}
	c.unlink(i)
	delete(c.index, k)
	c.slots[i].next, c.free = c.free, i
}

func (c *ctxCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

func (c *ctxCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}
