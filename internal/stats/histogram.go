// Package stats provides the measurement machinery for experiments:
// log-bucketed latency histograms with percentile queries, CDF export,
// and time-weighted utilization accounting. Everything is allocation-free
// on the record path so that recording millions of simulated requests is
// cheap.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// subBucketBits controls histogram precision: 2^subBucketBits sub-buckets
// per power of two gives a worst-case relative error of 2^-subBucketBits
// (≈1.6 % at 6 bits), comfortably below the run-to-run noise of any of
// the reproduced experiments.
const subBucketBits = 6

const subBuckets = 1 << subBucketBits

// Histogram records non-negative int64 values (latencies in cycles, sizes
// in bytes) in logarithmic buckets. The zero value is not usable; call
// NewHistogram.
type Histogram struct {
	counts []int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram able to record values up to
// 2^62.
func NewHistogram() *Histogram {
	// Index space: values < subBuckets map 1:1; above that, each power of
	// two contributes subBuckets buckets. 64 powers are enough for int64.
	return &Histogram{
		counts: make([]int64, subBuckets*64),
		min:    math.MaxInt64,
	}
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1 // >= subBucketBits
	shift := msb - subBucketBits
	// Buckets for magnitude msb start at msb*subBuckets... derive from the
	// identity that values in [2^msb, 2^(msb+1)) split into subBuckets
	// equal ranges of width 2^shift.
	return int((msb-subBucketBits+1))*subBuckets + int(v>>uint(shift)) - subBuckets
}

// bucketLow returns the smallest value mapping to bucket i; bucketHigh
// the largest.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	block := i/subBuckets - 1 // 0-based power block above the linear range
	sub := i % subBuckets
	shift := uint(block)
	return (int64(subBuckets) + int64(sub)) << shift
}

func bucketHigh(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	block := i/subBuckets - 1
	shift := uint(block)
	return bucketLow(i) + (int64(1) << shift) - 1
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the average of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) with
// relative error bounded by the bucket width (≈1.6 %).
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, hi := bucketLow(i), bucketHigh(i)
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// P50, P99, P999 are convenience accessors for the percentiles the paper
// reports.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// CDFPoint is one step of a cumulative distribution.
type CDFPoint struct {
	Value    int64   // upper bound of the bucket
	Fraction float64 // cumulative fraction of observations ≤ Value
}

// CDF returns the cumulative distribution over non-empty buckets, for
// plotting Figure 2(b)-style latency CDFs.
func (h *Histogram) CDF() []CDFPoint {
	var out []CDFPoint
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, CDFPoint{Value: bucketHigh(i), Fraction: float64(cum) / float64(h.total)})
	}
	return out
}

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p99=%d p99.9=%d max=%d",
		h.total, h.Min(), h.P50(), h.P99(), h.P999(), h.max)
}

// ExactQuantile computes the true quantile of a sample set; used by tests
// to validate the histogram's error bound.
func ExactQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
