package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/workload"
)

// buildMigrating assembles the migration chaos topology: the array
// block-placed over four nodes (each owns a contiguous quarter) with a
// Zipfian key skew, so fault traffic concentrates on node 0's block and
// the planner has real work every epoch. The planner's knobs sit well
// below the calibrated defaults because the whole run is ~10 ms.
func buildMigrating(seed int64, replicas int, fl faults.Config) (*System, *workload.ArrayApp) {
	const arrayBytes int64 = migArray
	cfg := Preset(Adios, arrayBytes/20)
	cfg.Seed = seed
	cfg.MemNodes = migNodes
	cfg.Replicas = replicas
	cfg.Block = arrayBytes / (4 << 10) / migNodes
	cfg.Faults = fl
	cfg.Migrate = migrate.Config{Enabled: true, Epoch: sim.Micros(100),
		HotThreshold: 2, Bandwidth: 1, Imbalance: 1.1, MaxMoves: 128, MinFaults: 4}
	sys := NewSystem(cfg)
	app := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
	app.WriteFrac = 0.25 // write-backs race in-flight copies: the dual-apply path
	app.SetSkew(1.2)
	app.WarmCache()
	sys.StartApp(app)
	return sys, app
}

const (
	migArray = 8 << 20
	migNodes = 4
)

// runMigChaos drives one run and returns its result and the counts
// snapshotted after it, plus a digest of everything the migration
// machinery decided: counters, the order-sensitive flip hash, and the
// run's own totals.
func runMigChaos(t *testing.T, seed int64, replicas int, fl faults.Config) (RunResult, map[string]float64, string) {
	t.Helper()
	sys, app := buildMigrating(seed, replicas, fl)
	res := sys.Run(app, 400_000, sim.Millis(2), sim.Millis(8))
	if app.Mismatches.Value() != 0 {
		t.Fatalf("data mismatches = %d", app.Mismatches.Value())
	}
	if errs := sys.Audit(res, true); len(errs) > 0 {
		t.Fatalf("audit: %v", errs)
	}
	c := sys.Stats.Snapshot()
	digest := fmt.Sprintf(
		"completed=%d tput=%v aborts=%d failovers=%d migrations=%d "+
			"planned=%d deferred=%d migAborted=%d retries=%d epochs=%d "+
			"flipHash=%#x p999=%v",
		res.Completed, res.TputK, res.Aborts, count(c, "paging.failover_reads"), count(c, "migrate.pages_moved"),
		sys.Migr.Planned.Value(), sys.Migr.Deferred.Value(), sys.Migr.Aborted.Value(),
		sys.Migr.Retries.Value(), sys.Migr.Epochs.Value(),
		sys.Migr.ScheduleHash(), res.P999us)
	if sys.Repair != nil {
		digest += fmt.Sprintf(" repaired=%d repairHash=%#x", count(c, "repair.repaired"), sys.Repair.ScheduleHash())
	}
	return res, c, digest
}

// TestMigrationDeterministic: two identically seeded skewed runs with
// the migrator planning and landing flips must agree byte-for-byte on
// results, every migration counter, and the order-sensitive flip hash.
// Run under -race in CI, this also exercises the planner, executor, and
// dual-apply paths for data races.
func TestMigrationDeterministic(t *testing.T) {
	_, c1, d1 := runMigChaos(t, 7, 1, faults.Config{})
	_, _, d2 := runMigChaos(t, 7, 1, faults.Config{})
	if d1 != d2 {
		t.Fatalf("same-seed migrating runs diverge:\n%s\n%s", d1, d2)
	}
	if count(c1, "migrate.pages_moved") == 0 {
		t.Fatal("skewed block-placed run landed no migrations — the test exercises nothing")
	}
}

// migDigestPins are runMigChaos(seed 7) digests recorded at the tree
// that still had a migration executor of its own (PR 13); see
// chaosDigestPins. The crash variants run at replicas=2 and carry the
// repairer's schedule hash too, since the two compose there. The
// crash-rejoin row was re-recorded once since, when repair stopped
// landing a copy whose slot's owner rejoined while it was in flight: one
// copy fewer lands (repaired 226 → 225), nothing else moved.
var (
	migCrash  = faults.Config{CrashAt: sim.Millis(5), CrashNode: 0, CrashSet: true}
	migRejoin = faults.Config{CrashAt: sim.Millis(5), CrashNode: 0, CrashSet: true,
		RejoinAt: sim.Millis(7), RejoinSet: true}
)

const (
	migDigestPlain  = "completed=3923 tput=393.375 aborts=0 failovers=0 migrations=50 planned=50 deferred=0 migAborted=0 retries=0 epochs=600 flipHash=0x4e7975c4d5132b8c p999=8.2555"
	migDigestCrash  = "completed=3923 tput=393.375 aborts=0 failovers=32 migrations=51 planned=51 deferred=0 migAborted=0 retries=0 epochs=600 flipHash=0x2ebba6d522c9be26 p999=9.6635 repaired=997 repairHash=0x259f592999504fa0"
	migDigestRejoin = "completed=3923 tput=393.375 aborts=0 failovers=26 migrations=50 planned=50 deferred=0 migAborted=0 retries=0 epochs=600 flipHash=0x85ff02643eeb4f27 p999=9.6635 repaired=225 repairHash=0xe26627a90880cc39"
)

// TestMigrationDigestPinned holds the three migration chaos runs to the
// recorded digests.
func TestMigrationDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		fl       faults.Config
		want     string
	}{
		{"plain", 1, faults.Config{}, migDigestPlain},
		{"crash-permanent", 2, migCrash, migDigestCrash},
		{"crash-rejoin", 2, migRejoin, migDigestRejoin},
	} {
		if _, _, d := runMigChaos(t, 7, tc.replicas, tc.fl); d != tc.want {
			t.Errorf("%s: migration digest moved:\n got %s\nwant %s", tc.name, d, tc.want)
		}
	}
}

// TestCrashDuringMigration is the composition chaos test: a node dies
// (and in one variant rejoins) while the migrator is mid-plan and
// mid-copy, with the invariant oracles armed. Replicated, the run must
// stay lossless — in-flight jobs touching the dead node abort cleanly,
// reads fail over, and the audit (including the migrator's owner-table
// and state-machine sweeps) stays clean.
func TestCrashDuringMigration(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)

	for _, tc := range []struct {
		name string
		fl   faults.Config
	}{
		{"crash-permanent", migCrash},
		{"crash-rejoin", migRejoin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, c, d1 := runMigChaos(t, 7, 2, tc.fl)
			if res.Aborts != 0 {
				t.Fatalf("replicas=2: %d requests aborted across a node death", res.Aborts)
			}
			if count(c, "paging.failover_reads") == 0 {
				t.Fatal("replicas=2: no failover reads despite a dead primary")
			}
			if count(c, "migrate.pages_moved") == 0 {
				t.Fatal("no migrations landed — the crash composed with nothing")
			}
			// The repro contract: the same chaos schedule replays to the
			// identical digest.
			_, _, d2 := runMigChaos(t, 7, 2, tc.fl)
			if d1 != d2 {
				t.Fatalf("same-seed crash runs diverge:\n%s\n%s", d1, d2)
			}
		})
	}
}
