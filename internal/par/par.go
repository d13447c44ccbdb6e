// Package par is the module's one deterministic fan-out. A caller fixes a
// chunk layout that depends only on the problem size, never on the worker
// count, has every chunk write only its own slots, and reduces per-chunk
// results in chunk order afterwards; results are then bit-identical at any
// worker count (DESIGN.md §10).
package par

import (
	"sync"
	"sync/atomic"
)

// Chunks returns min(n, limit), and at least 1: a chunk count over n items
// that leaves no chunk empty and still gives an empty input one chunk.
func Chunks(n, limit int) int {
	return max(1, min(n, limit))
}

// Do calls fn(ci) exactly once for every chunk index ci in [0, k) and
// returns when all calls have. With workers <= 1 (or k <= 1) it runs inline
// in chunk order; otherwise min(workers, k) goroutines pull chunk indices
// from an atomic counter.
func Do(workers, k int, fn func(ci int)) {
	workers = min(workers, k)
	if workers <= 1 {
		for ci := 0; ci < k; ci++ {
			fn(ci)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for ci := int(next.Add(1)) - 1; ci < k; ci = int(next.Add(1)) - 1 {
				fn(ci)
			}
		}()
	}
	wg.Wait()
}

// Ranges splits [0, n) into k >= 1 chunks of ⌈n/k⌉ items and calls
// fn(ci, lo, hi) through Do for every chunk that holds at least one item.
func Ranges(workers, n, k int, fn func(ci, lo, hi int)) {
	size := (n + k - 1) / k
	Do(workers, k, func(ci int) {
		if lo, hi := ci*size, min((ci+1)*size, n); lo < hi {
			fn(ci, lo, hi)
		}
	})
}
