// Package lru is the daemon's one memo cache: a sharded LRU with
// singleflight collapse, byte accounting and snapshot export/import.
// The server holds two instances of it — marshaled response bodies
// keyed on canonicalized requests, and compiled kernel tables keyed on
// the cluster spec alone — and experiments.Suite a third for its
// tables. They are separate instances, not one shared LRU, so that
// churn in the many small result entries never evicts a table whose
// rebuild costs milliseconds.
//
// Sharding bounds lock contention: a key's shard is fixed by an FNV-1a
// hash, so two concurrent callers serialize only when they collide on a
// shard, and each shard runs its own LRU list, so eviction is
// shard-local and O(1). A single-shard cache is an exact LRU.
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultCapacity is the entry cap New applies to a non-positive
// capacity: generous for the handful of distinct clusters a deployment
// serves, small enough that even worst-case tables stay within tens of
// megabytes.
const DefaultCapacity = 64

// shard is one LRU: a mutex, the lookup map and the recency list
// (front = most recent).
type shard struct {
	mu  sync.Mutex
	cap int
	// maxBytes bounds the shard's summed value sizes (0 = unlimited).
	maxBytes int64
	ll       *list.List
	m        map[string]*list.Element
	bytes    int64
}

// entry is a recency-list payload.
type entry[V any] struct {
	key string
	val V
}

// call is one in-flight singleflight computation.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Stats is a point-in-time view of the cache's effectiveness.
type Stats struct {
	// Hits and Misses count lookups: one per Get or Do call, collapsed
	// waiters included.
	Hits, Misses uint64
	// Evictions counts LRU entries dropped to entry or byte pressure.
	Evictions uint64
	// Collapsed counts Do callers that waited on another caller's
	// computation instead of running their own.
	Collapsed uint64
	// Entries is the current number of cached values.
	Entries int
	// Bytes is the summed size of the cached values.
	Bytes int64
}

// HitRatio returns Hits / (Hits + Misses), 0 when nothing was asked.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a sharded LRU with singleflight. Values are shared across
// goroutines without copying, so they must be immutable. The zero value
// is not usable; construct with New.
type Cache[V any] struct {
	shards []shard
	// mask selects a shard from a key hash (len(shards)-1).
	mask uint32
	size func(V) int64

	flightMu sync.Mutex
	flight   map[string]*call[V]

	hits, misses, evictions, collapsed atomic.Uint64
}

// New returns a cache of capacity entries (capacity <= 0 selects
// DefaultCapacity) spread over shards LRU lists (rounded up to a power
// of two, at least one). Each shard holds capacity/shards entries
// rounded up, so Capacity can exceed capacity by less than one entry
// per shard. size reports a value's bytes for Bytes and SetMaxBytes.
func New[V any](capacity, shards int, size func(V) int64) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < shards {
		n *= 2
	}
	c := &Cache[V]{
		shards: make([]shard, n),
		mask:   uint32(n - 1),
		size:   size,
		flight: make(map[string]*call[V]),
	}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i] = shard{cap: per, ll: list.New(), m: make(map[string]*list.Element)}
	}
	return c
}

// fnv1a hashes the key for shard selection.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache[V]) shardFor(key string) *shard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[fnv1a(key)&c.mask]
}

// get looks key up and marks it most recently used. Only counted
// lookups move the hit/miss counters: a singleflight owner's re-check is
// part of a lookup that already counted.
func (c *Cache[V]) get(key string, count bool) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		if count {
			c.hits.Add(1)
		}
		return el.Value.(*entry[V]).val, true
	}
	if count {
		c.misses.Add(1)
	}
	var zero V
	return zero, false
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	return c.get(key, true)
}

// Add stores key → val, evicting the shard's least recently used
// entries past its entry or byte limit. Re-adding an existing key
// refreshes its value and recency.
func (c *Cache[V]) Add(key string, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*entry[V])
		s.bytes += c.size(val) - c.size(e.val)
		e.val = val
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&entry[V]{key: key, val: val})
	s.bytes += c.size(val)
	c.evictLocked(s)
}

// evictLocked drops the shard's least-recently-used entries until both
// the entry cap and the byte limit hold. The newest entry survives even
// when it alone exceeds the limit: evicting it would only force the
// next caller to recompute it, the exact cost the cache amortizes.
func (c *Cache[V]) evictLocked(s *shard) {
	for s.ll.Len() > 1 && (s.ll.Len() > s.cap || (s.maxBytes > 0 && s.bytes > s.maxBytes)) {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		e := oldest.Value.(*entry[V])
		delete(s.m, e.key)
		s.bytes -= c.size(e.val)
		c.evictions.Add(1)
	}
}

// SetMaxBytes bounds the summed size of cached values across the whole
// cache (0 or negative removes the bound). The bound is split evenly
// across shards, so a skewed key distribution can evict below the
// global figure: the limit is a ceiling, not a fill target. Lowering it
// evicts immediately, coldest first per shard.
func (c *Cache[V]) SetMaxBytes(n int64) {
	per := int64(0)
	if n > 0 {
		per = (n + int64(len(c.shards)) - 1) / int64(len(c.shards))
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.maxBytes = per
		c.evictLocked(s)
		s.mu.Unlock()
	}
}

// MaxBytes returns the global byte limit (0 = unlimited).
func (c *Cache[V]) MaxBytes() int64 {
	s := &c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxBytes * int64(len(c.shards))
}

// Capacity returns the entry cap: the per-shard cap times the shards.
func (c *Cache[V]) Capacity() int {
	return c.shards[0].cap * len(c.shards)
}

// Entry is one cached (key, value) pair as exported by Hottest and
// imported by Load.
type Entry[V any] struct {
	Key string
	Val V
}

// Hottest returns up to limit entries, hottest first (limit <= 0
// returns everything). Recency is shard-local, so the global order is
// approximated by interleaving the shards' lists front-to-back: the
// i-th round takes each shard's i-th most recent entry. A single-shard
// cache returns its exact recency order. Hottest does not touch recency
// or the hit/miss counters: snapshotting the cache must not reorder it.
func (c *Cache[V]) Hottest(limit int) []Entry[V] {
	perShard := make([][]Entry[V], len(c.shards))
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		list := make([]Entry[V], 0, s.ll.Len())
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[V])
			list = append(list, Entry[V]{Key: e.key, Val: e.val})
		}
		s.mu.Unlock()
		perShard[i] = list
		total += len(list)
	}
	if limit <= 0 || limit > total {
		limit = total
	}
	out := make([]Entry[V], 0, limit)
	for round := 0; len(out) < limit; round++ {
		for _, list := range perShard {
			if round < len(list) {
				out = append(out, list[round])
				if len(out) == limit {
					break
				}
			}
		}
	}
	return out
}

// Load inserts the longest prefix of entries, which are ordered hottest
// first as Hottest returns them, that fits the cache's entry cap and
// byte limit, and reports how many it took. It inserts coldest-first,
// so the cache's recency order ends as the list's, and inserting can
// never evict a hotter just-loaded entry for a colder one.
func (c *Cache[V]) Load(entries []Entry[V]) int {
	capN, budget := c.Capacity(), c.MaxBytes()
	n := 0
	var bytes int64
	for _, e := range entries {
		if n >= capN {
			break
		}
		bytes += c.size(e.Val)
		if budget > 0 && bytes > budget {
			break
		}
		n++
	}
	for i := n - 1; i >= 0; i-- {
		c.Add(entries[i].Key, entries[i].Val)
	}
	return n
}

// Do returns the cached value for key, computing it with fn on a miss.
// Concurrent Do calls for the same key collapse: one caller runs fn, the
// rest block and share its result. Successful results are cached; errors
// are returned to every collapsed caller and nothing is stored, so a
// failing computation cannot poison the cache and the next Do retries.
// cached reports whether the value came from the cache without running
// or waiting on fn.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (val V, cached bool, err error) {
	if v, ok := c.get(key, true); ok {
		return v, true, nil
	}
	c.flightMu.Lock()
	if cl, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		c.collapsed.Add(1)
		cl.wg.Wait()
		return cl.val, false, cl.err
	}
	cl := &call[V]{}
	cl.wg.Add(1)
	c.flight[key] = cl
	c.flightMu.Unlock()

	// Re-check under flight ownership: another caller may have completed
	// and cached between our miss and claiming the flight slot.
	if v, ok := c.get(key, false); ok {
		cl.val = v
	} else if v, ferr := fn(); ferr == nil {
		cl.val = v
		c.Add(key, v)
	} else {
		cl.err = ferr
	}

	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.err
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Delete removes key's entry, if any, and reports whether there was one.
func (c *Cache[V]) Delete(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return false
	}
	s.ll.Remove(el)
	delete(s.m, key)
	s.bytes -= c.size(el.Value.(*entry[V]).val)
	return true
}

// DeleteFunc removes every entry whose key satisfies pred and returns
// the number removed. It walks the shards one lock at a time, so a
// concurrent Add racing the sweep may land after it: callers that use
// DeleteFunc for invalidation must also stop producing the doomed keys
// (the server does: invalidated keys carry a profile version that no
// new request resolves to).
func (c *Cache[V]) DeleteFunc(pred func(key string) bool) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.m {
			if !pred(key) {
				continue
			}
			s.ll.Remove(el)
			delete(s.m, key)
			s.bytes -= c.size(el.Value.(*entry[V]).val)
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// Reset empties the cache (statistics are kept; they describe the
// process, not the current contents).
func (c *Cache[V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		s.m = make(map[string]*list.Element)
		s.bytes = 0
		s.mu.Unlock()
	}
}

// Bytes returns the summed size of the cached values.
func (c *Cache[V]) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cache's counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Collapsed: c.collapsed.Load(),
		Entries:   c.Len(),
		Bytes:     c.Bytes(),
	}
}
