package server

import (
	"math"
	"sync"

	rangereach "repro"
)

// cacheKey identifies one RangeReach result: the query vertex plus the
// normalized region.
type cacheKey struct {
	vertex int
	region rangereach.Rect
}

// numShards spreads lock contention; a power of two so the hash maps to
// a shard with a mask.
const numShards = 16

// queryCache is a sharded LRU of RangeReach answers with
// generation-based invalidation: every entry is stamped with the index
// generation it was computed against, and a lookup under a newer
// generation treats the entry as a miss and drops it. Static indexes
// never change generation, so their entries live until evicted; dynamic
// mode bumps the generation on every snapshot swap, invalidating the
// whole cache in O(1) without touching entries.
//
// Each shard keeps its entries in a slab preallocated to the shard's
// capacity, linked into recency order by int32 indexes, and a map from
// key to slot presized to the same capacity: once the slab is full,
// an eviction recycles the least recently used slot, so Get and Put do
// not allocate.
type queryCache struct {
	shards [numShards]cacheShard
}

type cacheShard struct {
	mu   sync.Mutex
	m    map[cacheKey]int32 //lint:guardedby mu — key → slab slot
	slab []cacheEntry       //lint:guardedby mu — len = slots ever used, cap = capacity
	head int32              //lint:guardedby mu — most recently used slot, -1 when empty
	tail int32              //lint:guardedby mu — least recently used slot, -1 when empty
	free int32              //lint:guardedby mu — dropped slots, linked through next; -1 when none
}

// cacheEntry is one slab slot. prev and next link it into the shard's
// recency list (prev towards head); -1 ends the list.
type cacheEntry struct {
	key        cacheKey
	gen        uint64
	val        bool
	prev, next int32
}

// newQueryCache builds a cache holding about capacity entries total.
// Capacity below numShards still grants each shard one slot.
func newQueryCache(capacity int) *queryCache {
	per := capacity / numShards
	if per < 1 {
		per = 1
	}
	c := &queryCache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			m:    make(map[cacheKey]int32, per),
			slab: make([]cacheEntry, 0, per),
			head: -1, tail: -1, free: -1,
		}
	}
	return c
}

// shardFor hashes the key with FNV-1a over its scalar fields.
func (c *queryCache) shardFor(k cacheKey) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(k.vertex))
	mix(math.Float64bits(k.region.MinX))
	mix(math.Float64bits(k.region.MinY))
	mix(math.Float64bits(k.region.MaxX))
	mix(math.Float64bits(k.region.MaxY))
	return &c.shards[h&(numShards-1)]
}

// Get returns the cached answer for k computed at generation gen.
// Entries from older generations are evicted on sight.
func (c *queryCache) Get(k cacheKey, gen uint64) (val, ok bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.m[k]
	if !ok {
		return false, false
	}
	if s.slab[i].gen != gen {
		s.unlink(i)
		delete(s.m, k)
		s.slab[i].next, s.free = s.free, i
		return false, false
	}
	s.unlink(i)
	s.pushFront(i)
	return s.slab[i].val, true
}

// Put stores the answer for k computed at generation gen, evicting the
// least recently used entry of the shard when full.
func (c *queryCache) Put(k cacheKey, gen uint64, val bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.m[k]; ok {
		s.slab[i].gen, s.slab[i].val = gen, val
		s.unlink(i)
		s.pushFront(i)
		return
	}
	var i int32
	switch {
	case len(s.m) >= cap(s.slab):
		i = s.tail
		s.unlink(i)
		delete(s.m, s.slab[i].key)
	case s.free >= 0:
		i, s.free = s.free, s.slab[s.free].next
	default:
		i = int32(len(s.slab))
		s.slab = s.slab[:i+1]
	}
	s.slab[i] = cacheEntry{key: k, gen: gen, val: val}
	s.pushFront(i)
	s.m[k] = i
}

// unlink takes slot i out of the recency list.
//
//lint:locked s.mu
func (s *cacheShard) unlink(i int32) {
	e := &s.slab[i]
	if e.prev >= 0 {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront links slot i in as the most recently used.
//
//lint:locked s.mu
func (s *cacheShard) pushFront(i int32) {
	e := &s.slab[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slab[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// Len reports the current number of entries (tests only).
func (c *queryCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}
