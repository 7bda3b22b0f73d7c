package bench

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

func runResilience(t *testing.T) (table, csv string, series Series) {
	t.Helper()
	var out, csvb strings.Builder
	opt := Options{Short: true, Seed: 3, Out: &out, CSV: &csvb}
	opt.SetParallel(4)
	series = mustRun(t, "resilience", opt).Sweeps[0]
	return out.String(), csvb.String(), series
}

// TestResilienceDeterministic is the chaos determinism check of the
// acceptance criteria: the same seed and the same fault plan must
// produce byte-identical tables and CSV rows, even with parallel
// point execution.
func TestResilienceDeterministic(t *testing.T) {
	t1, c1, _ := runResilience(t)
	t2, c2, _ := runResilience(t)
	if t1 != t2 {
		t.Fatalf("tables differ across identical runs:\n--- first\n%s\n--- second\n%s", t1, t2)
	}
	if c1 != c2 {
		t.Fatalf("CSV differs across identical runs:\n--- first\n%s\n--- second\n%s", c1, c2)
	}
	if !strings.Contains(c1, "resilience,") {
		t.Fatal("no resilience CSV rows emitted")
	}
}

// TestResilienceSurvivesFaults asserts the experiment's qualitative
// content: the faulty operating point actually exercises the retry
// machinery, nearly all requests still succeed (bounded aborts), and
// the yield system absorbs fault-recovery latency better than the
// busy-wait baseline, which spins through every retry backoff.
func TestResilienceSurvivesFaults(t *testing.T) {
	_, _, series := runResilience(t)
	faultyA, okA := series["Adios@wr0.010"]
	faultyD, okD := series["DiLOS@wr0.010"]
	cleanA := series["Adios@wr0.000"]
	if !okA || !okD || len(cleanA) == 0 {
		t.Fatalf("missing series; have %v", slices.Sorted(maps.Keys(series)))
	}
	a, d := faultyA[0], faultyD[0]
	if a.Retries == 0 || d.Retries == 0 {
		t.Fatalf("faulty points exercised no retries: Adios=%d DiLOS=%d", a.Retries, d.Retries)
	}
	for _, p := range []Point{a, d} {
		if p.Completed == 0 || float64(p.Aborts) > 0.01*float64(p.Completed) {
			t.Fatalf("excessive aborts: %d of %d completed", p.Aborts, p.Completed)
		}
		if p.TputK < 0.95*p.OfferedK {
			t.Fatalf("goodput collapsed under faults: %.0fK of %.0fK offered", p.TputK, p.OfferedK)
		}
	}
	if a.P99us >= d.P99us {
		t.Fatalf("yield P99 %.1fus not below busy-wait %.1fus under faults", a.P99us, d.P99us)
	}
}
