package mapping

import (
	"cmp"
	"math"
	"slices"
)

// queueCmp is the total order of the tension queue: decreasing tension,
// ties broken by increasing pair id. Pair ids are unique within one queue
// (initialQueue enumerates each pair once, nextQueue dedupes through
// pairMark), so no two entries ever compare equal and the sorted queue is a
// function of its contents alone, whatever order they arrived in.
func queueCmp(a, b pairTension) int {
	if a.tension != b.tension {
		if a.tension > b.tension {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// sortQueue fully orders the queue by queueCmp.
func sortQueue(q []pairTension) {
	slices.SortFunc(q, queueCmp)
}

// swapLimit is ⌈λ·n⌉ clamped to [1, n] for n > 0: the number of queue
// entries one sweep iteration consumes, and therefore the only prefix whose
// order Algorithm 3 ever observes (nextQueue treats the rest of the queue
// as an unordered set — which is why a snapshot whose tail is unsorted
// resumes bit-identically).
func swapLimit(lambda float64, n int) int {
	if n <= 0 {
		return 0
	}
	limit := int(math.Ceil(lambda * float64(n)))
	if limit < 1 {
		limit = 1
	}
	if limit > n {
		limit = n
	}
	return limit
}
