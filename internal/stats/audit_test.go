package stats

import (
	"strings"
	"testing"
)

// TestQuantileEdgeCases table-drives the degenerate distributions the
// swarm audit must not trip over: empty histograms, a single sample,
// and a saturated bucket (every observation in one log bucket, where
// the midpoint estimate must still clamp to the recorded envelope).
func TestQuantileEdgeCases(t *testing.T) {
	qs := []float64{0, 0.5, 0.99, 0.999, 1}
	cases := []struct {
		name    string
		samples []int64
		want    map[float64]int64 // expected exact answers, per q
	}{
		{
			name:    "empty",
			samples: nil,
			want:    map[float64]int64{0: 0, 0.5: 0, 0.99: 0, 0.999: 0, 1: 0},
		},
		{
			name:    "single-sample",
			samples: []int64{123456},
			want:    map[float64]int64{0: 123456, 0.5: 123456, 0.99: 123456, 0.999: 123456, 1: 123456},
		},
		{
			name:    "single-zero",
			samples: []int64{0},
			want:    map[float64]int64{0: 0, 0.5: 0, 0.99: 0, 0.999: 0, 1: 0},
		},
		{
			// 10k copies of one value saturating a single log bucket:
			// the bucket-midpoint estimate must clamp to min==max.
			name:    "saturated-bucket",
			samples: repeat(1<<20+17, 10000),
			want:    map[float64]int64{0: 1<<20 + 17, 0.5: 1<<20 + 17, 0.99: 1<<20 + 17, 0.999: 1<<20 + 17, 1: 1<<20 + 17},
		},
		{
			// Two spikes at the extremes: p0/p50 land in the low spike,
			// p99+ in the high one (within bucket error).
			name:    "bimodal",
			samples: append(repeat(10, 990), repeat(1<<30, 10)...),
			want:    map[float64]int64{0: 10, 0.5: 10, 1: 1 << 30},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram()
			for _, s := range tc.samples {
				h.Record(s)
			}
			for _, q := range qs {
				got := h.Quantile(q)
				if want, ok := tc.want[q]; ok {
					if len(tc.samples) <= 1 || q == 0 || q == 1 {
						if got != want {
							t.Errorf("q=%v: got %d, want exactly %d", q, got, want)
						}
					} else if !within(got, want, 0.02) {
						t.Errorf("q=%v: got %d, want %d ±2%%", q, got, want)
					}
				}
				if h.Count() > 0 && (got < h.Min() || got > h.Max()) {
					t.Errorf("q=%v: %d escaped envelope [%d, %d]", q, got, h.Min(), h.Max())
				}
			}
			if err := h.Check(); err != nil {
				t.Errorf("Check: %v", err)
			}
		})
	}
}

func repeat(v int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func within(got, want int64, frac float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return float64(d) <= frac*float64(want)
}

func TestHistogramCheckDetectsDrift(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 100; i++ {
		h.Record(i * 1000)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("healthy histogram failed: %v", err)
	}
	h.total++ // simulate a ledger drift
	err := h.Check()
	if err == nil {
		t.Fatal("drifted histogram passed")
	}
	if !strings.Contains(err.Error(), "stats/hist-total") {
		t.Fatalf("wrong oracle: %v", err)
	}
}

func TestReconcile(t *testing.T) {
	if err := Reconcile("sched", 10, map[string]int64{"completed": 7, "aborted": 2, "dropped": 1}); err != nil {
		t.Fatalf("balanced identity failed: %v", err)
	}
	err := Reconcile("sched", 10, map[string]int64{"completed": 7, "aborted": 2})
	if err == nil {
		t.Fatal("unbalanced identity passed")
	}
	if !strings.Contains(err.Error(), "stats/reconcile") || !strings.Contains(err.Error(), "sent=10") {
		t.Fatalf("violation rendering: %v", err)
	}
	if err := Reconcile("neg", 1, map[string]int64{"completed": -1}); err == nil {
		t.Fatal("negative counter passed")
	}
}
