package cluster

import (
	"sync"
	"sync/atomic"
)

// parallelFor runs body over [0, n) in chunks claimed from a shared
// atomic cursor by a pool of workers, so a worker stalled by the
// scheduler or an asymmetric machine cannot strand a static block. The
// calling goroutine is one of the workers, so a single worker runs the
// chunks in order without a goroutine handoff. The first error cancels
// the run: workers stop claiming chunks and parallelFor returns that
// error.
func parallelFor(n, workers, chunk int, body func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		cursor   atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	work := func() {
		for !stopped.Load() {
			hi := int(cursor.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			if err := body(lo, hi); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				stopped.Store(true)
				return
			}
		}
	}
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
