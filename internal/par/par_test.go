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
