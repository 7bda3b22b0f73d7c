package stats

import "testing"

type inner struct{ Hidden Counter }

type Engine struct{ Retries Counter }

type layerStats struct {
	*Engine
	inner
	FetchRetries Counter
	QPResets     Counter
	WRErrors     Counter
	RepairLat    *Histogram
	Unset        *Histogram
	private      Counter
}

// TestRegistryNames: a registered struct's exported counters, those
// promoted from the structs it embeds (as the language promotes them),
// and its histograms' count and p99 (in µs) are in the snapshot under
// snake_case names, acronyms kept whole; unexported fields, nil
// histograms, nil embedded pointers and non-struct values add nothing.
func TestRegistryNames(t *testing.T) {
	s := &layerStats{Engine: &Engine{}, RepairLat: NewHistogram()}
	s.FetchRetries.Add(3)
	s.Retries.Inc()
	s.QPResets.Add(2)
	s.RepairLat.Record(3000) // cycles: 1.5 µs
	r := Registry{"sim.max_pending": func() float64 { return 7 }}
	r.Register("paging", s)
	r.Register("repair", &layerStats{})
	r.Register("none", nil)
	r.Register("app", 42)

	snap := r.Snapshot()
	want := map[string]float64{
		"sim.max_pending": 7, "paging.retries": 1, "paging.fetch_retries": 3,
		"paging.qp_resets": 2, "paging.wr_errors": 0, "paging.repair_lat_count": 1,
		"paging.repair_lat_p99_us": 1.5,
		"paging.hidden":            0, "repair.hidden": 0,
		"repair.fetch_retries": 0, "repair.qp_resets": 0, "repair.wr_errors": 0,
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot %v, want %v", snap, want)
	}
	for name, v := range want {
		if got, ok := snap[name]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	s.FetchRetries.Inc()
	if got := r.Snapshot()["paging.fetch_retries"]; got != 4 {
		t.Errorf("a later snapshot reads fetch_retries = %v, want 4", got)
	}
}
