package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBucketRoundTrip(t *testing.T) {
	// Property: every value lands in a bucket whose [low, high] range
	// contains it, and bucket ranges are contiguous and ordered.
	check := func(raw uint32) bool {
		v := int64(raw)
		i := bucketIndex(v)
		return bucketLow(i) <= v && v <= bucketHigh(i)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Contiguity near power-of-two boundaries.
	for v := int64(1); v < 1<<20; v *= 2 {
		for _, x := range []int64{v - 1, v, v + 1} {
			i := bucketIndex(x)
			if bucketLow(i) > x || bucketHigh(i) < x {
				t.Fatalf("value %d outside bucket %d range [%d,%d]", x, i, bucketLow(i), bucketHigh(i))
			}
		}
	}
	for i := 0; i < subBuckets*40-1; i++ {
		if bucketHigh(i)+1 != bucketLow(i+1) {
			t.Fatalf("buckets %d and %d not contiguous: high=%d nextLow=%d", i, i+1, bucketHigh(i), bucketLow(i+1))
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %d, want 5050", h.Sum())
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	// Values < 64 are recorded exactly.
	if got := h.Quantile(0.25); got != 25 {
		t.Fatalf("q25 = %d, want 25", got)
	}
	h.Record(-5) // clamped to 0
	if h.Min() != 0 {
		t.Fatalf("min after negative = %d, want 0", h.Min())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Quantile estimates must stay within the bucket relative-error bound
	// (1/64 ≈ 1.6%, allow 3% for boundary effects) of the exact
	// quantile for heavy-tailed data, which is what latency looks like.
	r := rand.New(rand.NewSource(7))
	h := NewHistogram()
	samples := make([]int64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := int64(r.ExpFloat64() * 20000)
		if r.Intn(100) == 0 {
			v += int64(r.ExpFloat64() * 2_000_000) // tail
		}
		h.Record(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.10, 0.50, 0.90, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		want := float64(ExactQuantile(samples, q))
		if want == 0 {
			continue
		}
		rel := (got - want) / want
		if rel < -0.03 || rel > 0.03 {
			t.Errorf("q%.3f: got %.0f want %.0f (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramMergeMatchesCombined(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 10000; i++ {
		v := int64(r.Intn(1 << 22))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatal("merge does not match combined recording")
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merged q%v = %d, combined = %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(int64(i % 10))
	}
	cdf := h.CDF()
	if len(cdf) != 10 {
		t.Fatalf("CDF points = %d, want 10", len(cdf))
	}
	last := 0.0
	for _, p := range cdf {
		if p.Fraction < last {
			t.Fatal("CDF not monotone")
		}
		last = p.Fraction
	}
	if last != 1.0 {
		t.Fatalf("CDF final fraction = %v, want 1", last)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestWindowedBusy(t *testing.T) {
	var w WindowedBusy
	w.StartWindow(1000)
	w.AddInterval(0, 500)     // entirely before window: dropped
	w.AddInterval(900, 1100)  // clipped to [1000,1100): 100
	w.AddInterval(1500, 1700) // 200
	if got := w.Utilization(2000); got != 0.3 {
		t.Fatalf("utilization = %v, want 0.3", got)
	}
}
