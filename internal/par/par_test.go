package par

import (
	"slices"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, k := range []int{1, 63, 64, 65, 1000} {
			calls := make([]atomic.Int32, k)
			Do(workers, k, func(ci int) { calls[ci].Add(1) })
			for ci := range calls {
				if n := calls[ci].Load(); n != 1 {
					t.Fatalf("workers=%d k=%d: chunk %d ran %d times", workers, k, ci, n)
				}
			}
		}
	}
}

func TestDoInlineInOrder(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var order []int // appended without synchronization: inline runs only
		Do(workers, 100, func(ci int) { order = append(order, ci) })
		for ci, got := range order {
			if got != ci {
				t.Fatalf("workers=%d: call %d ran chunk %d", workers, ci, got)
			}
		}
		if len(order) != 100 {
			t.Fatalf("workers=%d: %d calls, want 100", workers, len(order))
		}
	}
}

func TestRangesCoverOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			k := Chunks(n, 64)
			size := (n + k - 1) / k
			hits := make([]atomic.Int32, n)
			var calls atomic.Int32
			Ranges(workers, n, k, func(ci, lo, hi int) {
				calls.Add(1)
				if lo != ci*size || hi != min(lo+size, n) || lo >= hi {
					t.Errorf("n=%d: chunk %d is [%d, %d), want [%d, %d)", n, ci, lo, hi, ci*size, min(lo+size, n))
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("workers=%d n=%d: item %d covered %d times", workers, n, i, h)
				}
			}
			if want := (n + max(size, 1) - 1) / max(size, 1); int(calls.Load()) != want {
				t.Fatalf("workers=%d n=%d: %d calls, want %d non-empty chunks", workers, n, calls.Load(), want)
			}
		}
	}
}

func TestChunks(t *testing.T) {
	got := []int{Chunks(0, 64), Chunks(1, 64), Chunks(63, 64), Chunks(64, 64), Chunks(65, 64)}
	if want := []int{1, 1, 63, 64, 64}; !slices.Equal(got, want) {
		t.Fatalf("Chunks = %v, want %v", got, want)
	}
}
