// Package par is the one in-process worker pool: the figure matrix and
// the fuzz campaign driver both fan independent simulations out through
// For. It sits outside the dvmc-lint determinism allowlist because it
// uses goroutines; determinism is the caller's contract — fn(i) writes
// only slot i of the caller's outputs, and every slot is a pure function
// of its index, so results are independent of worker count and schedule.
package par

import (
	"reflect"
	"runtime"
	"sync"
)

// For runs fn(0..n-1) on min(workers, n) goroutines; workers <= 0 sizes
// the pool to GOMAXPROCS first, and one worker runs inline.
func For(n, workers int, fn func(i int)) {
	ForWith(n, workers, func(_ *struct{}, i int) { fn(i) })
}

// ForWith is For with a state per worker: fn(s, i) gets the running
// worker's *S, which the worker keeps across every index it runs and
// then leaves idle for a later ForWith over S to take up, until the
// collector frees it. So an S is either zero or what some earlier index
// left in it; which, depends on the schedule, and what fn(i) writes to
// its slot must not. A caller keeps storage there, not results. An S is
// touched by one goroutine at a time.
func ForWith[S any](n, workers int, fn func(s *S, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	pool := idleStates[S]()
	if workers <= 1 {
		s := pool.Get().(*S)
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		pool.Put(s)
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := pool.Get().(*S)
			for i := range jobs {
				fn(s, i)
			}
			pool.Put(s)
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// idle holds a sync.Pool of idle worker states per state type.
var idle sync.Map

// idleStates is the pool of idle states of type S; it makes a zero S
// when none is idle.
func idleStates[S any]() *sync.Pool {
	t := reflect.TypeFor[S]()
	if p, ok := idle.Load(t); ok {
		return p.(*sync.Pool)
	}
	p, _ := idle.LoadOrStore(t, &sync.Pool{New: func() any { return new(S) }})
	return p.(*sync.Pool)
}
