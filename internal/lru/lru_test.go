package lru

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The server runs two configurations of this cache: 16 shards for
// response bodies and one shard for compiled tables. Behaviour both
// rely on is checked on both.
var shardCounts = []int{1, 16}

func forShards(t *testing.T, f func(t *testing.T, shards int)) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// newBytes is the result-cache configuration: []byte values sized by
// length.
func newBytes(capacity, shards int) *Cache[[]byte] {
	return New(capacity, shards, func(b []byte) int64 { return int64(len(b)) })
}

// fakeArtifact is a table-cache-style value with a fixed reported size.
type fakeArtifact struct {
	id   int
	size int
}

// newArtifacts is the table-cache configuration: one exact LRU sized by
// the artifact's own report.
func newArtifacts(capacity int) *Cache[fakeArtifact] {
	return New(capacity, 1, func(a fakeArtifact) int64 { return int64(a.size) })
}

func TestGetAddRoundTrip(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(64, shards)
		if _, ok := c.Get("missing"); ok {
			t.Fatal("Get on empty cache reported a hit")
		}
		c.Add("k", []byte("42"))
		v, ok := c.Get("k")
		if !ok || string(v) != "42" {
			t.Fatalf("Get(k) = %q, %v; want 42, true", v, ok)
		}
		c.Add("k", []byte("43")) // refresh
		if v, _ := c.Get("k"); string(v) != "43" {
			t.Fatalf("refreshed value = %q, want 43", v)
		}
		st := c.Stats()
		if st.Hits != 2 || st.Misses != 1 {
			t.Errorf("stats = %+v, want 2 hits, 1 miss", st)
		}
		if r := st.HitRatio(); r < 0.66 || r > 0.67 {
			t.Errorf("hit ratio = %v, want 2/3", r)
		}
	})
}

// TestLookupsCountedOnce: every Get and Do call is exactly one
// lookup — a hit or a miss — including the singleflight owner's
// re-check and every collapsed waiter. A cold Do followed by a warm Do
// is one miss and one hit, not two misses.
func TestLookupsCountedOnce(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(64, shards)
		fn := func() ([]byte, error) { return []byte("v"), nil }
		c.Do("a", fn)
		c.Do("a", fn)
		if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("cold+warm Do: hits=%d misses=%d, want 1 and 1", st.Hits, st.Misses)
		}
		calls := uint64(2)
		c.Get("a")
		c.Get("nope")
		c.Do("b", fn)
		c.Do("b", fn)
		c.Do("err", func() ([]byte, error) { return nil, errInjected })
		calls += 5

		// A collapsed herd: one owner blocked in fn, the rest waiting.
		const waiters = 5
		entered, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do("herd", func() ([]byte, error) {
				close(entered)
				<-release
				return []byte("h"), nil
			})
		}()
		<-entered
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Do("herd", fn)
			}()
		}
		for c.Stats().Collapsed < waiters {
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
		wg.Wait()
		calls += 1 + waiters

		if st := c.Stats(); st.Hits+st.Misses != calls {
			t.Fatalf("hits %d + misses %d = %d lookups for %d calls", st.Hits, st.Misses, st.Hits+st.Misses, calls)
		}
	})
}

func TestLRUEvictionPerShard(t *testing.T) {
	// Capacity 16 over 16 shards → one entry per shard: any two
	// same-shard keys evict.
	c := newBytes(16, 16)
	const n = 200
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	if c.Len() > 16 {
		t.Fatalf("Len() = %d, want <= 16 at capacity 16", c.Len())
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	// The most recently added key of some shard must survive; at least
	// one of the last 16 keys is its shard's newest.
	survivors := 0
	for i := n - 16; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); ok {
			survivors++
		}
	}
	if survivors == 0 {
		t.Error("eviction dropped even the most recently used entries")
	}
}

func TestLRUEvictsOldestNotRecentlyUsed(t *testing.T) {
	c := newBytes(16, 16) // one per shard
	// Find two keys landing in the same shard.
	base := "a"
	var sibling string
	for i := 0; ; i++ {
		k := fmt.Sprintf("b%d", i)
		if c.shardFor(k) == c.shardFor(base) {
			sibling = k
			break
		}
	}
	c.Add(base, []byte("1"))
	c.Add(sibling, []byte("2")) // evicts base (capacity 1 in the shard)
	if _, ok := c.Get(base); ok {
		t.Error("oldest entry survived past capacity")
	}
	if v, ok := c.Get(sibling); !ok || string(v) != "2" {
		t.Error("newest entry was evicted instead of the oldest")
	}
}

// TestGetAddLRUAndBytes: the single-shard cache is an exact LRU — a
// touched entry outlives an untouched older one — with exact byte
// accounting through evictions and refreshes.
func TestGetAddLRUAndBytes(t *testing.T) {
	c := newArtifacts(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Add("a", fakeArtifact{1, 100})
	c.Add("b", fakeArtifact{2, 200})
	if got := c.Bytes(); got != 300 {
		t.Fatalf("bytes = %d, want 300", got)
	}
	// Touch a so b is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should hit")
	}
	c.Add("c", fakeArtifact{3, 50})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if got := c.Bytes(); got != 150 {
		t.Fatalf("bytes after eviction = %d, want 150", got)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	// Re-adding an existing key refreshes value, recency and bytes.
	c.Add("c", fakeArtifact{4, 70})
	if got := c.Bytes(); got != 170 {
		t.Fatalf("bytes after refresh = %d, want 170", got)
	}
	if v, ok := c.Get("c"); !ok || v.id != 4 {
		t.Fatalf("refresh should replace the value, got %v", v)
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(64, shards)
		var calls atomic.Int32
		fn := func() ([]byte, error) {
			calls.Add(1)
			return []byte("result"), nil
		}
		v, cached, err := c.Do("k", fn)
		if err != nil || cached || string(v) != "result" {
			t.Fatalf("first Do = %q, %v, %v", v, cached, err)
		}
		v, cached, err = c.Do("k", fn)
		if err != nil || !cached || string(v) != "result" {
			t.Fatalf("second Do = %q, %v, %v; want cached", v, cached, err)
		}
		if calls.Load() != 1 {
			t.Errorf("fn ran %d times, want 1", calls.Load())
		}
	})
}

func TestDoErrorNotCached(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(64, shards)
		boom := errors.New("boom")
		var calls atomic.Int32
		for i := 0; i < 3; i++ {
			_, cached, err := c.Do("k", func() ([]byte, error) { calls.Add(1); return nil, boom })
			if !errors.Is(err, boom) || cached {
				t.Fatalf("Do %d = (cached=%v, err=%v), want boom", i, cached, err)
			}
		}
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("error should leave the cache empty, len=%d bytes=%d", c.Len(), c.Bytes())
		}
		v, _, err := c.Do("k", func() ([]byte, error) { calls.Add(1); return []byte("7"), nil })
		if err != nil || string(v) != "7" {
			t.Fatalf("retry Do = %q, %v", v, err)
		}
		if calls.Load() != 4 {
			t.Errorf("fn ran %d times, want 4 (errors must not cache)", calls.Load())
		}
	})
}

func TestDoCollapsesConcurrentCallers(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(64, shards)
		var calls atomic.Int32
		gate := make(chan struct{})
		const callers = 32

		var wg sync.WaitGroup
		results := make([][]byte, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, _, err := c.Do("shared", func() ([]byte, error) {
					calls.Add(1)
					<-gate // hold every other caller in the collapse path
					return []byte("once"), nil
				})
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
				}
				results[i] = v
			}(i)
		}
		// Let the herd pile up behind the single computation, then release.
		for c.Stats().Collapsed < callers-1 && calls.Load() <= 1 {
			time.Sleep(100 * time.Microsecond)
		}
		close(gate)
		wg.Wait()

		if calls.Load() != 1 {
			t.Fatalf("fn ran %d times under a %d-caller herd, want 1", calls.Load(), callers)
		}
		for i, v := range results {
			if string(v) != "once" {
				t.Fatalf("caller %d got %q", i, v)
			}
		}
		if c.Stats().Collapsed != callers-1 {
			t.Errorf("collapsed = %d, want %d", c.Stats().Collapsed, callers-1)
		}
	})
}

// The table cache's singleflight on its own configuration: one exact
// shard holding values that report their own size.
func TestDoBuildsOnceAndCaches(t *testing.T) {
	c := newArtifacts(0)
	var builds atomic.Int64
	build := func() (fakeArtifact, error) {
		builds.Add(1)
		return fakeArtifact{1, 10}, nil
	}
	v, cached, err := c.Do("k", build)
	if err != nil || cached || v.id != 1 {
		t.Fatalf("first Do = (%v, %v, %v)", v, cached, err)
	}
	v, cached, err = c.Do("k", build)
	if err != nil || !cached || v.id != 1 {
		t.Fatalf("second Do = (%v, %v, %v)", v, cached, err)
	}
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	if got := c.Bytes(); got != 10 {
		t.Fatalf("bytes = %d, want the artifact's reported 10", got)
	}
}

func TestDoNeverCachesErrors(t *testing.T) {
	c := newArtifacts(0)
	boom := errors.New("boom")
	var builds atomic.Int64
	for i := 0; i < 3; i++ {
		_, cached, err := c.Do("k", func() (fakeArtifact, error) {
			builds.Add(1)
			return fakeArtifact{}, boom
		})
		if !errors.Is(err, boom) || cached {
			t.Fatalf("Do %d = (cached=%v, err=%v)", i, cached, err)
		}
	}
	if builds.Load() != 3 {
		t.Fatalf("failed build should rerun every time, ran %d", builds.Load())
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("error should leave the cache empty, len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// A later success lands normally.
	v, _, err := c.Do("k", func() (fakeArtifact, error) { return fakeArtifact{9, 5}, nil })
	if err != nil || v.id != 9 {
		t.Fatalf("recovery Do = (%v, %v)", v, err)
	}
}

func TestDoSingleflightCollapses(t *testing.T) {
	c := newArtifacts(0)
	const callers = 8
	release := make(chan struct{})
	var builds atomic.Int64
	var wg sync.WaitGroup
	results := make([]fakeArtifact, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func() (fakeArtifact, error) {
				builds.Add(1)
				<-release
				return fakeArtifact{7, 10}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until every other caller waits on the one builder, then
	// release it.
	for c.Stats().Collapsed < callers-1 {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times under contention, want 1", builds.Load())
	}
	for i, v := range results {
		if v.id != 7 {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(256, shards)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					k := fmt.Sprintf("key-%d", i%64)
					switch i % 4 {
					case 0:
						c.Add(k, []byte(k))
					case 1:
						c.Get(k)
					case 2:
						c.Delete(k)
					default:
						if _, _, err := c.Do(k, func() ([]byte, error) { return []byte(k), nil }); err != nil {
							t.Errorf("Do: %v", err)
						}
					}
				}
			}()
		}
		wg.Wait()
		if c.Len() > 64 {
			t.Errorf("Len() = %d, want <= 64 distinct keys", c.Len())
		}
	})
}

func TestReset(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(64, shards)
		c.Add("k", []byte("1"))
		c.Reset()
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Errorf("after Reset: Len() = %d, Bytes() = %d", c.Len(), c.Bytes())
		}
		if _, ok := c.Get("k"); ok {
			t.Error("entry survived Reset")
		}
	})
}

// TestResetAndDefaultCapacity: a non-positive capacity selects
// DefaultCapacity, and Reset keeps the process-lifetime counters.
func TestResetAndDefaultCapacity(t *testing.T) {
	c := newArtifacts(-1)
	if c.Capacity() != DefaultCapacity {
		t.Fatalf("Capacity() = %d, want %d", c.Capacity(), DefaultCapacity)
	}
	for i := 0; i < DefaultCapacity+10; i++ {
		c.Add(fmt.Sprintf("k%d", i), fakeArtifact{i, 1})
	}
	if c.Len() != DefaultCapacity {
		t.Fatalf("len = %d, want %d", c.Len(), DefaultCapacity)
	}
	c.Reset()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("reset should empty the cache, len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if c.Stats().Evictions != 10 {
		t.Fatalf("evictions survive reset, got %d want 10", c.Stats().Evictions)
	}
}

func TestBytesTracksByteSliceValues(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(64, shards)
		if c.Bytes() != 0 {
			t.Fatalf("empty cache Bytes() = %d", c.Bytes())
		}
		c.Add("body", make([]byte, 100))
		c.Add("empty", nil)
		if got := c.Bytes(); got != 100 {
			t.Fatalf("Bytes() = %d, want 100", got)
		}
		// Refresh replaces, not accumulates.
		c.Add("body", make([]byte, 40))
		if got := c.Bytes(); got != 40 {
			t.Fatalf("refreshed Bytes() = %d, want 40", got)
		}
		if st := c.Stats(); st.Bytes != 40 {
			t.Fatalf("Stats().Bytes = %d, want 40", st.Bytes)
		}
	})
}

func TestBytesReleasedOnEviction(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		// Capacity 16: stuffing many bodies must keep the accounted bytes
		// equal to the surviving entries' sizes.
		c := newBytes(16, shards)
		for i := 0; i < 100; i++ {
			c.Add(fmt.Sprintf("key-%d", i), make([]byte, 10))
		}
		if got, want := c.Bytes(), int64(c.Len()*10); got != want {
			t.Fatalf("Bytes() = %d, want %d for %d resident entries", got, want, c.Len())
		}
	})
}

// DeleteFunc removes exactly the matching entries across all shards,
// fixes the byte accounting, and leaves the rest servable.
func TestDeleteFunc(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(256, shards)
		for i := 0; i < 40; i++ {
			c.Add(fmt.Sprintf("predict|ep@v1|{\"i\":%d}", i), []byte("0123456789"))
			c.Add(fmt.Sprintf("predict|ep@v2|{\"i\":%d}", i), []byte("01234"))
		}
		before := c.Bytes()
		n := c.DeleteFunc(func(key string) bool { return strings.Contains(key, "|ep@v1|") })
		if n != 40 {
			t.Fatalf("DeleteFunc removed %d, want 40", n)
		}
		if c.Len() != 40 {
			t.Errorf("Len after delete = %d, want 40", c.Len())
		}
		if got, want := c.Bytes(), before-400; got != want {
			t.Errorf("Bytes after delete = %d, want %d", got, want)
		}
		for i := 0; i < 40; i++ {
			if _, ok := c.Get(fmt.Sprintf("predict|ep@v1|{\"i\":%d}", i)); ok {
				t.Fatalf("invalidated key %d still reachable", i)
			}
			if _, ok := c.Get(fmt.Sprintf("predict|ep@v2|{\"i\":%d}", i)); !ok {
				t.Fatalf("surviving key %d was dropped", i)
			}
		}
		if n := c.DeleteFunc(func(string) bool { return false }); n != 0 {
			t.Errorf("no-match DeleteFunc removed %d", n)
		}
	})
}

// Delete removes one entry, fixes the byte accounting, and reports a
// missing key.
func TestDelete(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(256, shards)
		c.Add("a", []byte("0123456789"))
		c.Add("b", []byte("01234"))
		if !c.Delete("a") {
			t.Fatal("Delete of a present key reported none")
		}
		if c.Delete("a") || c.Delete("missing") {
			t.Fatal("Delete of an absent key reported one")
		}
		if _, ok := c.Get("a"); ok {
			t.Fatal("deleted key still reachable")
		}
		if _, ok := c.Get("b"); !ok || c.Len() != 1 || c.Bytes() != 5 {
			t.Fatalf("after Delete: b present %t, Len %d, Bytes %d; want true, 1, 5", ok, c.Len(), c.Bytes())
		}
	})
}

// TestBytesExactAfterSweep is the preheat-era accounting regression
// test: after bulk inserts, value updates and a DeleteFunc sweep,
// Stats.Bytes must equal what a cache freshly rebuilt from the
// survivors reports — drift would make byte-limited preheat trim the
// wrong amount.
func TestBytesExactAfterSweep(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newBytes(256, shards)
		for i := 0; i < 128; i++ {
			c.Add(fmt.Sprintf("k%03d", i), make([]byte, 50+i))
		}
		// Re-add a third of the keys with different sizes (the update path).
		for i := 0; i < 40; i++ {
			c.Add(fmt.Sprintf("k%03d", i), make([]byte, 5+i))
		}
		c.DeleteFunc(func(key string) bool { return strings.HasSuffix(key, "3") })

		rebuilt := newBytes(256, shards)
		for _, e := range c.Hottest(0) {
			rebuilt.Add(e.Key, e.Val)
		}
		if got, want := c.Stats().Bytes, rebuilt.Stats().Bytes; got != want {
			t.Fatalf("Stats.Bytes = %d after sweep, freshly rebuilt cache reports %d", got, want)
		}
		if got, want := c.Len(), rebuilt.Len(); got != want {
			t.Fatalf("Len = %d after sweep, rebuilt = %d", got, want)
		}
		var sum int64
		for _, e := range c.Hottest(0) {
			sum += int64(len(e.Val))
		}
		if got := c.Bytes(); got != sum {
			t.Fatalf("Bytes() = %d, survivors sum to %d", got, sum)
		}
	})
}

// TestTableDeleteFunc: on the table-cache configuration DeleteFunc
// removes exactly the matching artifacts and subtracts their reported
// sizes.
func TestTableDeleteFunc(t *testing.T) {
	c := newArtifacts(8)
	c.Add("table|ep@v1|false", fakeArtifact{id: 1, size: 100})
	c.Add("table|ep@v1|true", fakeArtifact{id: 2, size: 50})
	c.Add("table|memcached@v1|false", fakeArtifact{id: 3, size: 30})
	n := c.DeleteFunc(func(key string) bool { return strings.Contains(key, "|ep@v1|") })
	if n != 2 {
		t.Fatalf("DeleteFunc removed %d, want 2", n)
	}
	if _, ok := c.Get("table|ep@v1|false"); ok {
		t.Error("invalidated artifact still reachable")
	}
	if _, ok := c.Get("table|memcached@v1|false"); !ok {
		t.Error("unrelated artifact was dropped")
	}
	if got := c.Bytes(); got != 30 {
		t.Errorf("Bytes after delete = %d, want 30", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len after delete = %d, want 1", c.Len())
	}
	if n := c.DeleteFunc(func(string) bool { return false }); n != 0 {
		t.Errorf("no-match DeleteFunc removed %d", n)
	}
}

// TestTableBytesExactAfterSweep is TestBytesExactAfterSweep on the
// table-cache configuration, where sizes come from the value's own
// report rather than a slice length.
func TestTableBytesExactAfterSweep(t *testing.T) {
	c := newArtifacts(128)
	for i := 0; i < 64; i++ {
		c.Add(fmt.Sprintf("k%03d", i), fakeArtifact{id: i, size: 100 + i})
	}
	// Re-add half the keys with different sizes (the update path).
	for i := 0; i < 32; i++ {
		c.Add(fmt.Sprintf("k%03d", i), fakeArtifact{id: i, size: 10 + i})
	}
	c.DeleteFunc(func(key string) bool { return strings.HasSuffix(key, "7") })

	rebuilt := newArtifacts(128)
	for _, e := range c.Hottest(0) {
		rebuilt.Add(e.Key, e.Val)
	}
	if got, want := c.Stats().Bytes, rebuilt.Stats().Bytes; got != want {
		t.Fatalf("Stats.Bytes = %d after sweep, freshly rebuilt cache reports %d", got, want)
	}
	if got, want := c.Len(), rebuilt.Len(); got != want {
		t.Fatalf("Len = %d after sweep, rebuilt = %d", got, want)
	}
	var sum int64
	for _, e := range c.Hottest(0) {
		sum += int64(e.Val.size)
	}
	if got := c.Bytes(); got != sum {
		t.Fatalf("Bytes() = %d, survivors sum to %d", got, sum)
	}
}

func TestSetMaxBytesBoundsResidency(t *testing.T) {
	const shards = 16
	c := newBytes(shards*64, shards)
	for i := 0; i < shards*32; i++ {
		c.Add(fmt.Sprintf("key-%04d", i), make([]byte, 100))
	}
	before := c.Bytes()
	c.SetMaxBytes(before / 4)
	if got := c.Bytes(); got > before/4+shards*100 {
		// Per-shard rounding can leave at most one extra entry per shard.
		t.Fatalf("Bytes = %d, limit %d not enforced", got, before/4)
	}
	if got := c.Len(); got == 0 {
		t.Fatal("byte limit must not empty the cache")
	}
	// Adds keep respecting the limit.
	limit := c.MaxBytes()
	for i := 0; i < shards*8; i++ {
		c.Add(fmt.Sprintf("new-%04d", i), make([]byte, 100))
	}
	if got := c.Bytes(); got > limit+shards*100 {
		t.Fatalf("Bytes = %d after adds, limit %d", got, limit)
	}
}

func TestSetMaxBytesEvictsColdestFirst(t *testing.T) {
	c := newArtifacts(100)
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("k%d", i), fakeArtifact{id: i, size: 10})
	}
	c.SetMaxBytes(35) // room for 3 entries of 10
	if got := c.Bytes(); got > 35 {
		t.Fatalf("Bytes = %d exceeds limit 35", got)
	}
	if got, want := c.Len(), 3; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Survivors must be the hottest (most recently added) entries.
	for _, e := range c.Hottest(0) {
		if e.Val.id < 7 {
			t.Fatalf("cold entry %q survived byte-limit eviction", e.Key)
		}
	}
	// Adds past the limit keep evicting.
	c.Add("new", fakeArtifact{id: 99, size: 10})
	if got := c.Bytes(); got > 35 {
		t.Fatalf("Bytes = %d exceeds limit after Add", got)
	}
	if _, ok := c.Get("new"); !ok {
		t.Fatal("freshly added entry must survive its own eviction pass")
	}
}

func TestMaxBytesKeepsSingleOversizedEntry(t *testing.T) {
	c := newArtifacts(10)
	c.SetMaxBytes(5)
	c.Add("big", fakeArtifact{id: 1, size: 100})
	if _, ok := c.Get("big"); !ok {
		t.Fatal("a single artifact larger than the limit must stay resident")
	}
	c.Add("big2", fakeArtifact{id: 2, size: 100})
	if got, want := c.Len(), 1; got != want {
		t.Fatalf("Len = %d, want %d (older oversized entry evicted)", got, want)
	}
	if _, ok := c.Get("big2"); !ok {
		t.Fatal("newest oversized artifact must be the survivor")
	}
}

func TestHottestOrderAndLimit(t *testing.T) {
	c := newArtifacts(10)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprintf("k%d", i), fakeArtifact{id: i, size: 1})
	}
	c.Get("k1") // k1 becomes hottest
	got := c.Hottest(3)
	if len(got) != 3 {
		t.Fatalf("Hottest(3) returned %d entries", len(got))
	}
	wantKeys := []string{"k1", "k4", "k3"}
	for i, e := range got {
		if e.Key != wantKeys[i] {
			t.Fatalf("Hottest order = %v..., want %v", e.Key, wantKeys)
		}
	}
	// Hottest must not perturb recency: k1 still hottest, k0 still coldest.
	all := c.Hottest(0)
	if len(all) != 5 || all[0].Key != "k1" || all[4].Key != "k0" {
		t.Fatalf("Hottest(0) perturbed recency: %v", all)
	}
}

func TestHottestInterleavesShards(t *testing.T) {
	c := newBytes(16*8, 16)
	for i := 0; i < 64; i++ {
		c.Add(fmt.Sprintf("k%03d", i), []byte{byte(i)})
	}
	all := c.Hottest(0)
	if len(all) != 64 {
		t.Fatalf("Hottest(0) returned %d entries, want 64", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.Key] {
			t.Fatalf("duplicate key %q", e.Key)
		}
		seen[e.Key] = true
	}
	// The first round of the interleave takes each non-empty shard's
	// most recent entry, in shard order.
	var heads []string
	for i := range c.shards {
		if el := c.shards[i].ll.Front(); el != nil {
			heads = append(heads, el.Value.(*entry[[]byte]).key)
		}
	}
	top := c.Hottest(len(heads))
	for i, e := range top {
		if e.Key != heads[i] {
			t.Fatalf("Hottest pick %d = %q, want shard head %q", i, e.Key, heads[i])
		}
	}
}

// TestLoad: Load takes the hottest prefix that fits the entry cap and
// the byte limit, and a cache loaded from another's Hottest exports
// the same order again — the property that keeps snapshot round trips
// stable.
func TestLoad(t *testing.T) {
	t.Run("entry cap", func(t *testing.T) {
		c := newArtifacts(3)
		var in []Entry[fakeArtifact]
		for i := 0; i < 5; i++ {
			in = append(in, Entry[fakeArtifact]{Key: fmt.Sprintf("k%d", i), Val: fakeArtifact{id: i, size: 1}})
		}
		if n := c.Load(in); n != 3 {
			t.Fatalf("Load took %d, want 3", n)
		}
		got := c.Hottest(0)
		for i, e := range got {
			if e.Key != in[i].Key {
				t.Fatalf("Hottest after Load = %v, want the prefix %v in order", got, in[:3])
			}
		}
		if ev := c.Stats().Evictions; ev != 0 {
			t.Errorf("Load evicted %d entries; the prefix should fit", ev)
		}
	})
	t.Run("byte limit", func(t *testing.T) {
		c := newArtifacts(10)
		c.SetMaxBytes(25)
		in := []Entry[fakeArtifact]{
			{Key: "hot", Val: fakeArtifact{id: 1, size: 10}},
			{Key: "warm", Val: fakeArtifact{id: 2, size: 10}},
			{Key: "cold", Val: fakeArtifact{id: 3, size: 10}},
		}
		if n := c.Load(in); n != 2 {
			t.Fatalf("Load took %d, want 2 under a 25-byte limit", n)
		}
		if _, ok := c.Get("cold"); ok {
			t.Error("the coldest entry was loaded past the byte limit")
		}
	})
	forShards(t, func(t *testing.T, shards int) {
		src := newBytes(256, shards)
		for i := 0; i < 100; i++ {
			src.Add(fmt.Sprintf("k%03d", i), []byte{byte(i)})
		}
		src.Get("k010")
		want := src.Hottest(0)
		dst := newBytes(256, shards)
		if n := dst.Load(want); n != len(want) {
			t.Fatalf("Load took %d of %d", n, len(want))
		}
		got := dst.Hottest(0)
		for i := range want {
			if got[i].Key != want[i].Key {
				t.Fatalf("round trip order differs at %d: %q, want %q", i, got[i].Key, want[i].Key)
			}
		}
	})
}
