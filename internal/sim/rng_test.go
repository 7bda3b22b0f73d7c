package sim

import (
	"math"
	"testing"
)

// FuzzBoundMatchesIntn: two RNGs from one seed, one drawing count values
// through NewBound(n), the other through Intn(n), agree on every draw
// and on the next Uint64 after them — so a Bound consumes exactly the
// source values Intn does, rejections included. An n outside
// [1, 2³¹−1] panics.
func FuzzBoundMatchesIntn(f *testing.F) {
	for _, n := range []int{1, 2, 3, 10, 11, 91, 2001, 9900, 100000, 999900,
		1<<30 + 1, // about half of all draws are rejected
		math.MaxInt32, 1 << 29, 0, -1} {
		f.Add(int64(1), n, uint16(1000))
	}
	f.Fuzz(func(t *testing.T, seed int64, n int, count uint16) {
		if n < 1 || int64(n) > math.MaxInt32 {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewBound(%d) did not panic", n)
				}
			}()
			NewBound(n)
			return
		}
		b, bounded, plain := NewBound(n), NewRNG(seed), NewRNG(seed)
		for i := 0; i < int(count); i++ {
			if got, want := bounded.Draw(b), plain.Intn(n); got != want {
				t.Fatalf("seed %d, n %d, draw %d: Draw = %d, Intn = %d", seed, n, i, got, want)
			}
		}
		if got, want := bounded.Uint64(), plain.Uint64(); got != want {
			t.Fatalf("seed %d, n %d: after %d draws the streams part: %#x vs %#x", seed, n, count, got, want)
		}
	})
}
