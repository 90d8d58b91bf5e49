// Package par is the one in-process worker pool: the figure matrix and
// the fuzz campaign driver both fan independent simulations out through
// For. It sits outside the dvmc-lint determinism allowlist because it
// uses goroutines; determinism is the caller's contract — fn(i) writes
// only slot i of the caller's outputs, and every slot is a pure function
// of its index, so results are independent of worker count and schedule.
package par

import (
	"runtime"
	"sync"
)

// For runs fn(0..n-1) on min(workers, n) goroutines; workers <= 0 sizes
// the pool to GOMAXPROCS first, and one worker runs inline.
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
