package rdma_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/paging"
	"repro/internal/sim"
)

// TestScheduleCrashRejectsBadWindow: NIC.ScheduleCrash trusts its
// window, so a window a node cannot live through (a rejoin at or before
// the crash, or a rejoin with no crash) must be refused before any NIC
// sees it: core.Config.Validate returns an error, and NewSystem panics
// with that error instead of building the fabric.
func TestScheduleCrashRejectsBadWindow(t *testing.T) {
	rejoin := func(at sim.Time, crash bool) faults.Config {
		return faults.Config{CrashAt: sim.Micros(10), CrashNode: 1, CrashSet: crash, RejoinAt: at, RejoinSet: true}
	}
	for _, tc := range []struct {
		name string
		plan faults.Config
	}{
		{"rejoin before crash", rejoin(sim.Micros(5), true)},
		{"rejoin at crash", rejoin(sim.Micros(10), true)},
		{"rejoin without crash", rejoin(sim.Micros(20), false)},
	} {
		cfg := core.Preset(core.Adios, 409*paging.PageSize)
		cfg.MemNodes, cfg.Replicas, cfg.Faults = 4, 2, tc.plan
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != "core: "+err.Error() {
					t.Errorf("%s: NewSystem panicked with %v, want Validate's %q", tc.name, r, err)
				}
			}()
			core.NewSystem(cfg)
		}()
	}
}
