package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestStatsRegistryIsComplete: every exported stats.Counter field of
// every struct core builds — the fault injectors, failure detector,
// repairer and migrator included, on a run that builds them all — is in
// the snapshot under its layer, with the field's value. A default
// one-node build holds no name of a subsystem it did not build.
func TestStatsRegistryIsComplete(t *testing.T) {
	plan := faults.Config{CrashAt: sim.Millis(2), CrashNode: 0, CrashSet: true, WRErrRate: 0.01}
	sys, app := buildMigrating(7, 2, plan)
	sys.Run(app, 400_000, sim.Millis(1), sim.Millis(3))
	snap := sys.Stats.Snapshot()

	built := map[string][]any{
		"ethernet": {sys.Net}, "paging": {sys.Mgr}, "unithread": {sys.Pool}, "sched": {sys.Sched},
		"health": {sys.Health}, "repair": {sys.Repair}, "migrate": {sys.Migr}, "app": {app},
	}
	for k := range sys.Fabric {
		built[fmt.Sprintf("memnode%d", k)] = []any{sys.Fabric[k], sys.Nodes[k]}
	}
	counter := reflect.TypeFor[stats.Counter]()
	fields := 0
	for layer, structs := range built {
		for _, s := range structs {
			v := reflect.ValueOf(s).Elem()
			for _, f := range reflect.VisibleFields(v.Type()) {
				fv, err := v.FieldByIndexErr(f.Index)
				if !f.IsExported() || f.Type != counter || err != nil {
					continue
				}
				fields++
				want := fv.FieldByName("n").Int()
				name := matching(snap, layer, f.Name)
				if name == "" {
					t.Errorf("%s: %T.%s is not in the snapshot", layer, s, f.Name)
				} else if snap[name] != float64(want) {
					t.Errorf("%s = %v, %T.%s = %d", name, snap[name], s, f.Name, want)
				}
			}
		}
	}
	if fields < 50 {
		t.Fatalf("walked %d counters: the test reaches too little", fields)
	}
	// The injectors are reachable only through the registry: each node
	// has one, and its counters are read live.
	for k := range sys.Fabric {
		for _, f := range reflect.VisibleFields(reflect.TypeFor[faults.Injector]()) {
			if f.IsExported() && f.Type == counter && matching(snap, fmt.Sprintf("memnode%d", k), f.Name) == "" {
				t.Errorf("memnode%d: the injector's %s is not in the snapshot", k, f.Name)
			}
		}
	}
	for _, name := range []string{"health.detected", "repair.repaired", "migrate.pages_moved", "memnode2.wr_errors"} {
		if snap[name] == 0 {
			t.Errorf("%s = 0: the run did not exercise it", name)
		}
	}

	sys, _ = buildMicro(Adios, 8<<20, 0.20, 1)
	for name := range sys.Stats.Snapshot() {
		layer, _, _ := strings.Cut(name, ".")
		if layer == "repair" || layer == "migrate" || layer == "health" || layer == "memnode1" {
			t.Errorf("default build registers %s", name)
		}
	}
}

// matching is the snapshot name under layer spelling field: its
// snake_case form, compared without the underscores.
func matching(snap map[string]float64, layer, field string) string {
	for name := range snap {
		rest, ok := strings.CutPrefix(name, layer+".")
		if ok && strings.ReplaceAll(rest, "_", "") == strings.ToLower(field) {
			return name
		}
	}
	return ""
}
