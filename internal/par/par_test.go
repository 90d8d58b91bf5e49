package par

import "testing"

// TestForVisitsEachIndexOnce covers the inline path, a pool smaller
// than the job count, one larger, the GOMAXPROCS default and no jobs.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 3, 64} {
			seen := make([]int, n)
			For(n, workers, func(i int) { seen[i]++ })
			for i, c := range seen {
				if c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestForWithKeepsOneStatePerWorker covers the inline path and a pool:
// every index runs once, on at most one state per worker, and a state is
// touched by one goroutine at a time (the race detector checks the
// increments).
func TestForWithKeepsOneStatePerWorker(t *testing.T) {
	type counter struct{ runs int }
	for _, workers := range []int{1, 3} {
		const n = 50
		seen := make([]*counter, n)
		ForWith(n, workers, func(s *counter, i int) {
			s.runs++
			seen[i] = s
		})
		states := map[*counter]bool{}
		for i, s := range seen {
			if s == nil {
				t.Fatalf("workers=%d: index %d did not run", workers, i)
			}
			states[s] = true
		}
		if len(states) > workers {
			t.Errorf("workers=%d: the indices ran on %d states", workers, len(states))
		}
	}
}
