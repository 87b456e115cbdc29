package experiments

import "sync"

// forEachIndex runs fn(w, i) over indices 0..n-1 on at most workers
// goroutines. w < workers identifies the goroutine running the call and
// no two calls with the same w overlap, so callers can index per-worker
// state (a harness.Workspace each) by it. Experiment cells are
// independent simulations (each carries its own seeded RNG), so fanning
// them out changes wall time, not results; the callers write into
// pre-sized slices to stay deterministic.
func forEachIndex(n, workers int, fn func(w, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(w, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}
