package lru

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected: downstream blew up")

// fixedClock drives DoFresh's staleness checks without sleeping.
type fixedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fixedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fixedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newClockedCache is the result-cache configuration on a test clock.
func newClockedCache(capacity int) (*Cache[[]byte], *fixedClock) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	c := newBytes(capacity, 16)
	c.now = clk.now
	return c, clk
}

// Every singleflight caller observes the same injected error — nobody
// gets a partial value, nobody re-runs the failing computation.
func TestSingleflightSharesInjectedError(t *testing.T) {
	c := newBytes(64, 16)
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls int
	fn := func() ([]byte, error) {
		calls++
		close(entered)
		<-release
		return nil, errInjected
	}

	const waiters = 8
	errs := make(chan error, waiters)
	go func() {
		_, _, err := c.Do("k", fn)
		errs <- err
	}()
	<-entered
	var wg sync.WaitGroup
	for i := 0; i < waiters-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Do("k", func() ([]byte, error) {
				t.Error("collapsed caller ran the function")
				return nil, nil
			})
			errs <- err
		}()
	}
	// Let the waiters pile onto the flight, then fail it.
	for c.Stats().Collapsed < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, errInjected) {
			t.Fatalf("caller %d: err = %v, want the injected error", i, err)
		}
	}
	if calls != 1 {
		t.Errorf("failing fn ran %d times, want 1", calls)
	}
}

// Errors stay uncached: a failed computation leaves no entry behind and
// the next caller retries.
func TestInjectedErrorsStayUncached(t *testing.T) {
	c := newBytes(64, 16)
	if _, _, err := c.Do("k", func() ([]byte, error) { return nil, errInjected }); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed computation left a cache entry")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after failure", c.Len())
	}
	v, cached, err := c.Do("k", func() ([]byte, error) { return []byte("42"), nil })
	if err != nil || cached || string(v) != "42" {
		t.Fatalf("retry = (%q, %v, %v), want fresh 42", v, cached, err)
	}
	if v, ok := c.Get("k"); !ok || string(v) != "42" {
		t.Fatal("successful retry not cached")
	}
}

// A poisoned entry never serves: when the computation fails, the value
// it produced is not stored and cannot be returned by later hits.
func TestPoisonedEntryNeverServes(t *testing.T) {
	c, clk := newClockedCache(64)
	c.Add("k", []byte("good"))
	clk.advance(time.Hour)
	v, _, stale, err := c.DoFresh("k", time.Minute, func() ([]byte, error) {
		return []byte("poison"), errInjected
	})
	if !stale || !errors.Is(err, errInjected) {
		t.Fatalf("DoFresh = (%q, %v, %v), want stale fallback", v, stale, err)
	}
	if string(v) != "good" {
		t.Fatalf("served %q, want the pre-failure value", v)
	}
	// The poison value must not have entered the cache.
	if got, _ := c.get("k", 0, false); string(got) != "good" {
		t.Fatalf("cache holds %q after failed recompute", got)
	}
	// A pure failure with nothing cached serves nothing.
	v, _, err = c.Do("missing", func() ([]byte, error) { return []byte("poison"), errInjected })
	if err == nil || v != nil {
		t.Fatalf("Do = (%q, %v), want no value and the error", v, err)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("poisoned entry cached")
	}
}

func TestDoFreshTTL(t *testing.T) {
	c, clk := newClockedCache(64)
	computes := 0
	fn := func() ([]byte, error) { computes++; return []byte{byte(computes)}, nil }

	// First call computes, second within the TTL hits.
	if v, _, stale, err := c.DoFresh("k", time.Minute, fn); v[0] != 1 || stale || err != nil {
		t.Fatalf("first = (%v, %v, %v)", v, stale, err)
	}
	if v, cached, _, _ := c.DoFresh("k", time.Minute, fn); v[0] != 1 || !cached {
		t.Fatalf("fresh hit recomputed: %v", v)
	}
	// Past the TTL the entry is stale and recomputes.
	clk.advance(2 * time.Minute)
	if v, _, stale, err := c.DoFresh("k", time.Minute, fn); v[0] != 2 || stale || err != nil {
		t.Fatalf("post-TTL = (%v, %v, %v), want recompute", v, stale, err)
	}
	// maxAge <= 0 means no TTL: the entry stays fresh forever.
	clk.advance(1000 * time.Hour)
	if v, _, _, _ := c.DoFresh("k", 0, fn); v[0] != 2 {
		t.Fatalf("no-TTL call recomputed: %v", v)
	}
	if computes != 2 {
		t.Errorf("computed %d times, want 2", computes)
	}
}

func TestDoFreshStaleFallbackCountsAndRecovers(t *testing.T) {
	c, clk := newClockedCache(64)
	c.DoFresh("k", time.Minute, func() ([]byte, error) { return []byte("v1"), nil })
	clk.advance(time.Hour)

	// Dependency down: stale serves, stat counts.
	v, _, stale, err := c.DoFresh("k", time.Minute, func() ([]byte, error) { return nil, errInjected })
	if string(v) != "v1" || !stale || !errors.Is(err, errInjected) {
		t.Fatalf("fallback = (%q, %v, %v)", v, stale, err)
	}
	if st := c.Stats(); st.StaleServes != 1 {
		t.Errorf("StaleServes = %d, want 1", st.StaleServes)
	}
	// Dependency back: recompute replaces the stale value.
	v, _, stale, err = c.DoFresh("k", time.Minute, func() ([]byte, error) { return []byte("v2"), nil })
	if string(v) != "v2" || stale || err != nil {
		t.Fatalf("recovery = (%q, %v, %v)", v, stale, err)
	}
	// Missing key + failure: error surfaces with no value.
	v, _, stale, err = c.DoFresh("other", time.Minute, func() ([]byte, error) { return nil, errInjected })
	if v != nil || stale || !errors.Is(err, errInjected) {
		t.Fatalf("cold failure = (%q, %v, %v)", v, stale, err)
	}
}

// Collapsed DoFresh callers share the stale outcome — same value, same
// flag, same error.
func TestDoFreshCollapsedCallersShareStaleOutcome(t *testing.T) {
	c, clk := newClockedCache(64)
	c.DoFresh("k", time.Minute, func() ([]byte, error) { return []byte("v1"), nil })
	clk.advance(time.Hour)

	entered := make(chan struct{})
	release := make(chan struct{})
	type out struct {
		v     []byte
		stale bool
		err   error
	}
	outs := make(chan out, 4)
	go func() {
		v, _, s, err := c.DoFresh("k", time.Minute, func() ([]byte, error) {
			close(entered)
			<-release
			return nil, errInjected
		})
		outs <- out{v, s, err}
	}()
	<-entered
	before := c.Stats().Collapsed
	for i := 0; i < 3; i++ {
		go func() {
			v, _, s, err := c.DoFresh("k", time.Minute, func() ([]byte, error) {
				t.Error("collapsed caller computed")
				return nil, nil
			})
			outs <- out{v, s, err}
		}()
	}
	for c.Stats().Collapsed < before+3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 4; i++ {
		o := <-outs
		if string(o.v) != "v1" || !o.stale || !errors.Is(o.err, errInjected) {
			t.Fatalf("caller %d: (%q, %v, %v), want shared stale outcome", i, o.v, o.stale, o.err)
		}
	}
	if st := c.Stats(); st.StaleServes != 1 {
		t.Errorf("StaleServes = %d, want 1 (one compute, shared)", st.StaleServes)
	}
}
