package lru

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected: downstream blew up")

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
// it produced is neither returned nor stored, and a cached entry beside
// it keeps serving.
func TestPoisonedEntryNeverServes(t *testing.T) {
	c := newBytes(64, 16)
	c.Add("k", []byte("good"))
	v, _, err := c.Do("missing", func() ([]byte, error) { return []byte("poison"), errInjected })
	if err == nil || v != nil {
		t.Fatalf("Do = (%q, %v), want no value and the error", v, err)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("poisoned entry cached")
	}
	if v, cached, err := c.Do("k", func() ([]byte, error) { return []byte("poison"), errInjected }); !cached || err != nil || string(v) != "good" {
		t.Fatalf("Do(k) = (%q, %v, %v), want the cached good value", v, cached, err)
	}
}
