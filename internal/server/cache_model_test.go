package server

import (
	"container/list"
	"math/rand"
	"testing"
)

// refShard is one shard of the reference LRU: the container/list design
// the slab cache replaced, with the same per-shard capacity and the same
// generation rules. The slab cache must evict exactly as it does.
type refShard struct {
	m     map[cacheKey]*list.Element
	order *list.List // front = most recently used
	cap   int
}

type refEntry struct {
	key cacheKey
	gen uint64
	val bool
}

func (s *refShard) get(k cacheKey, gen uint64) (val, ok bool) {
	el, ok := s.m[k]
	if !ok {
		return false, false
	}
	e := el.Value.(*refEntry)
	if e.gen != gen {
		s.order.Remove(el)
		delete(s.m, k)
		return false, false
	}
	s.order.MoveToFront(el)
	return e.val, true
}

func (s *refShard) put(k cacheKey, gen uint64, val bool) {
	if el, ok := s.m[k]; ok {
		e := el.Value.(*refEntry)
		e.gen, e.val = gen, val
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.m, back.Value.(*refEntry).key)
	}
	s.m[k] = s.order.PushFront(&refEntry{key: k, gen: gen, val: val})
}

// shardIndex is the index of the shard c keeps k in.
func shardIndex(c *queryCache, k cacheKey) int {
	sh := c.shardFor(k)
	for i := range c.shards {
		if &c.shards[i] == sh {
			return i
		}
	}
	panic("shardFor returned a foreign shard")
}

// sameOrder fails t unless slab shard s holds ref's entries in ref's
// recency order.
func sameOrder(t *testing.T, step, shard int, s *cacheShard, ref *refShard) {
	t.Helper()
	i, el := s.head, ref.order.Front()
	for n := 0; el != nil; n, el = n+1, el.Next() {
		want := el.Value.(*refEntry)
		if i < 0 {
			t.Fatalf("step %d shard %d: slab list ends at position %d, reference has %d entries", step, shard, n, ref.order.Len())
		}
		e := s.slab[i]
		if e.key != want.key || e.gen != want.gen || e.val != want.val {
			t.Fatalf("step %d shard %d position %d: slab holds %+v, reference %+v", step, shard, n, e, *want)
		}
		if got := s.m[e.key]; got != i {
			t.Fatalf("step %d shard %d: map sends %v to slot %d, list has it at %d", step, shard, e.key, got, i)
		}
		i = e.next
	}
	if i >= 0 {
		t.Fatalf("step %d shard %d: slab list longer than the reference's %d entries", step, shard, ref.order.Len())
	}
	if len(s.m) != ref.order.Len() {
		t.Fatalf("step %d shard %d: map holds %d keys, reference %d", step, shard, len(s.m), ref.order.Len())
	}
}

// TestCacheMatchesReferenceLRU drives the slab cache and the reference
// LRU with one random sequence of lookups, stores and generation bumps,
// lookups and stores under both the current and the previous generation
// (a request may have resolved its view before a swap), and checks every
// answer and, at intervals, every shard's full recency order.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{1, numShards, 64, 1000} {
		c := newQueryCache(capacity)
		per := capacity / numShards
		if per < 1 {
			per = 1
		}
		ref := make([]refShard, numShards)
		for i := range ref {
			ref[i] = refShard{m: map[cacheKey]*list.Element{}, order: list.New(), cap: per}
		}
		rng := rand.New(rand.NewSource(int64(capacity)))
		keys := make([]cacheKey, 3*numShards*per)
		for i := range keys {
			keys[i] = key(i, float64(i%7))
		}
		gen := uint64(1)
		for step := 0; step < 30000; step++ {
			k := keys[rng.Intn(len(keys))]
			g := gen - uint64(rng.Intn(2))
			sh := shardIndex(c, k)
			switch r := rng.Intn(100); {
			case r < 48:
				val, ok := c.Get(k, g)
				wval, wok := ref[sh].get(k, g)
				if val != wval || ok != wok {
					t.Fatalf("cap %d step %d: Get(%v, %d) = (%v, %v), reference (%v, %v)", capacity, step, k, g, val, ok, wval, wok)
				}
			case r < 97:
				val := rng.Intn(2) == 0
				c.Put(k, g, val)
				ref[sh].put(k, g, val)
			default:
				gen++
			}
			if step%1000 == 0 || step == 29999 {
				for i := range c.shards {
					sameOrder(t, step, i, &c.shards[i], &ref[i])
				}
			}
		}
	}
}
