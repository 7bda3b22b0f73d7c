package stats

import (
	"sort"

	"repro/internal/simcheck"
)

// Audit helpers: structural self-checks over the measurement machinery,
// called by the end-of-run audit (core.System.Audit) and by the
// seed-swarm explorer after every scenario. A histogram whose internal
// ledger has drifted would silently corrupt every figure derived from
// it, so the checks are cheap enough to run after each scenario.

// Check verifies the histogram's internal consistency: the per-bucket
// counts sum to the recorded total, min/max/quantiles stay within the
// recorded envelope, and the quantile function is monotone in q.
func (h *Histogram) Check() error {
	var cum int64
	for _, c := range h.counts {
		if c < 0 {
			return simcheck.New("stats/hist-negative",
				"histogram bucket count went negative").With("count", c)
		}
		cum += c
	}
	if cum != h.total {
		return simcheck.New("stats/hist-total",
			"bucket counts disagree with recorded total").
			With("buckets", cum).With("total", h.total)
	}
	if h.total == 0 {
		return nil
	}
	if h.min > h.max {
		return simcheck.New("stats/hist-envelope",
			"histogram min exceeds max").
			With("min", h.min).With("max", h.max)
	}
	if h.sum < h.min || h.sum < h.max {
		return simcheck.New("stats/hist-sum",
			"histogram sum below its own extrema").
			With("sum", h.sum).With("min", h.min).With("max", h.max)
	}
	prev := int64(-1)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		v := h.Quantile(q)
		if v < h.min || v > h.max {
			return simcheck.New("stats/hist-quantile",
				"quantile escaped the [min, max] envelope").
				With("q", q).With("value", v).
				With("min", h.min).With("max", h.max)
		}
		if v < prev {
			return simcheck.New("stats/hist-quantile",
				"quantile not monotone in q").
				With("q", q).With("value", v).With("prev", prev)
		}
		prev = v
	}
	return nil
}

// Reconcile checks a conservation identity over counters: sent events
// must all be accounted for as completed, aborted, or dropped. name
// labels the identity in the violation.
func Reconcile(name string, sent int64, parts map[string]int64) error {
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic violation rendering
	var sum int64
	for _, k := range keys {
		if parts[k] < 0 {
			return simcheck.New("stats/counter-negative",
				"counter went negative").
				With("identity", name).With(k, parts[k])
		}
		sum += parts[k]
	}
	if sum != sent {
		v := simcheck.New("stats/reconcile",
			"conservation identity does not balance").
			With("identity", name).With("sent", sent).With("accounted", sum)
		for _, k := range keys {
			v = v.With(k, parts[k])
		}
		return v
	}
	return nil
}
