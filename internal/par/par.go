// Package par is the bounded worker pool shared by crash recovery and
// the mirror rebuild copy. Each of those operations has a single code
// path; its parallelism knob only sets how many goroutines the pool
// starts, and 1 runs the same code inline on the caller's goroutine.
package par

import (
	"sync"
	"sync/atomic"
)

// Run runs fn(0)..fn(n-1) on up to workers goroutines. With workers <= 1
// it is a plain serial loop that stops at the first error. In parallel
// every index runs regardless of failures and the error of the lowest
// failing index is returned, so the reported failure does not depend on
// goroutine scheduling.
func Run(workers, n int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
