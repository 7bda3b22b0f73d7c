package memnode

import (
	"math/rand"
	"testing"
)

// TestPlacementProperties is the property check of the one placement
// rule, for every page and slot sampled: owners are in range and stable;
// the copies of a page sit on distinct nodes, each one node after the
// last around the ring; a stripe (Block 1) spreads any sequential range
// evenly (per-node counts differ by at most one); a block placement
// keeps each aligned run of Block pages on one node and gives the next
// run to the next node; and a single node owns everything.
func TestPlacementProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for _, block := range []int64{1, 3, 64} {
			for r := 1; r <= min(n, 3); r++ {
				pl := Placement{Nodes: n, Block: block, Replicas: r}
				for i := 0; i < 2000; i++ {
					page := rng.Int63n(1 << 40)
					var seen uint64
					for k := 0; k < r; k++ {
						o := pl.Owner(page, k)
						if o < 0 || o >= n || pl.Owner(page, k) != o {
							t.Fatalf("%+v: page %d slot %d -> node %d", pl, page, k, o)
						}
						if n == 1 && o != 0 {
							t.Fatalf("%+v: one node answered %d", pl, o)
						}
						if want := (pl.Owner(page, 0) + k) % n; o != want {
							t.Fatalf("%+v: page %d slot %d on node %d, want %d (ring)", pl, page, k, o, want)
						}
						if seen&(1<<uint(o)) != 0 {
							t.Fatalf("%+v: page %d has two copies on node %d", pl, page, o)
						}
						seen |= 1 << uint(o)
					}
					// The run holding page is one node's; the next run is the
					// next node's.
					start := page / block * block
					for p := start; p < start+block; p++ {
						if pl.Owner(p, 0) != pl.Owner(page, 0) {
							t.Fatalf("%+v: pages %d and %d of one block on nodes %d, %d",
								pl, page, p, pl.Owner(page, 0), pl.Owner(p, 0))
						}
					}
					if next := pl.Owner(start+block, 0); next != (pl.Owner(page, 0)+1)%n {
						t.Fatalf("%+v: block after page %d on node %d", pl, page, next)
					}
				}
			}
		}

		// Sequential ranges with arbitrary start and length: stripe
		// imbalance bounded by one page.
		stripe := Placement{Nodes: n, Block: 1, Replicas: 1}
		for trial := 0; trial < 50; trial++ {
			start := rng.Int63n(1 << 30)
			length := 1 + rng.Int63n(4096)
			counts := make([]int64, n)
			for p := start; p < start+length; p++ {
				counts[stripe.Owner(p, 0)]++
			}
			if lo, hi := minMax(counts); hi-lo > 1 {
				t.Fatalf("n=%d: range [%d,%d) imbalance %d", n, start, start+length, hi-lo)
			}
		}
	}
}

func minMax(xs []int64) (lo, hi int64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
