package workload

import (
	"testing"

	"repro/internal/sim"
)

func TestUniformDistribution(t *testing.T) {
	rng := sim.NewRNG(1)
	u := Uniform{Keys: 1000}
	if u.N() != 1000 {
		t.Fatal("N wrong")
	}
	buckets := make([]int, 10)
	for i := 0; i < 100000; i++ {
		k := u.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		buckets[k/100]++
	}
	for _, b := range buckets {
		if b < 9000 || b > 11000 {
			t.Fatalf("uniform buckets skewed: %v", buckets)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := sim.NewRNG(1)
	z := &Zipfian{Keys: 10000, S: 1.2}
	if z.N() != 10000 {
		t.Fatal("N wrong")
	}
	top, rest := 0, 0
	for i := 0; i < 50000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		if k < 100 {
			top++
		} else {
			rest++
		}
	}
	// 1% of keys must carry far more than 1% of accesses.
	if top < rest/4 {
		t.Fatalf("zipf not skewed: top=%d rest=%d", top, rest)
	}
}
