package mapping

import (
	"math"
	"testing"
)

// TestSwapLimitMatchesLoopFormula pins swapLimit to the historical in-loop
// computation ⌈λ·n⌉ clamped below by 1, for every λ the config accepts.
func TestSwapLimitMatchesLoopFormula(t *testing.T) {
	for _, lambda := range []float64{0.05, 0.3, 0.5, 1} {
		for n := 1; n < 50; n++ {
			got := swapLimit(lambda, n)
			want := int(math.Ceil(lambda * float64(n)))
			if want < 1 {
				want = 1
			}
			if got != want {
				t.Fatalf("swapLimit(%g, %d) = %d, want %d", lambda, n, got, want)
			}
			if prefix := swapLimit(lambda, n); prefix > n {
				t.Fatalf("swapLimit(%g, %d) = %d exceeds n", lambda, n, prefix)
			}
		}
	}
	if swapLimit(0.3, 0) != 0 {
		t.Fatal("swapLimit of an empty queue must be 0")
	}
}
