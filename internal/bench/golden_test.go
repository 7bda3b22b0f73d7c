package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

// shortCSV runs one experiment at -short -seed 1 under opt's settings
// and returns its table and CSV.
func shortCSV(t *testing.T, id string, opt Options) (table, csv string) {
	t.Helper()
	var out, csvb strings.Builder
	opt.Short, opt.Seed, opt.Out, opt.CSV = true, 1, &out, &csvb
	mustRun(t, id, opt)
	return out.String(), csvb.String()
}

// checkGolden compares an experiment's -short -seed 1 CSV under opt's
// settings against a file in testdata/.
func checkGolden(t *testing.T, id, golden string, opt Options) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if _, got := shortCSV(t, id, opt); got != string(want) {
		t.Fatalf("%s CSV diverged from golden %s\ngot:\n%s\nwant:\n%s", id, golden, got, want)
	}
}

// TestSingleNodeCSVMatchesPreShardGolden pins the sharding acceptance
// criterion: with MemNodes 1 the benchmark CSV is byte-identical to the
// output of the tree before multi-node support existed. The goldens in
// testdata/ were generated by the pre-shard adios-bench at -short
// -seed 1; any drift here means the single-node data plane changed
// behaviour, not just grew an option. Replicas 1 is pinned for the same
// reason: an unreplicated store must stay byte-identical to the tree
// before replication existed. (The zero Options mean the same and are
// what every other golden runs under.)
func TestSingleNodeCSVMatchesPreShardGolden(t *testing.T) {
	t.Run("resilience", func(t *testing.T) {
		checkGolden(t, "resilience", "preshard_resilience_short.csv", Options{MemNodes: 1, Replicas: 1})
	})
	t.Run("fig7a", func(t *testing.T) {
		if testing.Short() {
			t.Skip("fig7a golden takes ~15s; run without -short")
		}
		if raceEnabled {
			// ~100s under the race detector on one core; byte-identity
			// has no concurrency to detect and is covered race-free.
			t.Skip("too slow under -race; run without it")
		}
		checkGolden(t, "fig7a", "preshard_fig7a_short.csv", Options{MemNodes: 1, Replicas: 1})
	})
}

// TestFig7aMemNodes4MatchesGolden pins the scheduler-replacement
// acceptance criterion on a striped topology: fig7a at -short -seed 1
// -memnodes 4 must emit CSV byte-identical to the golden generated by
// the binary-heap event queue the timing wheel replaced. Any drift means
// the wheel changed dispatch order somewhere, not just got faster.
func TestFig7aMemNodes4MatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7a golden takes ~15s; run without -short")
	}
	if raceEnabled {
		// ~5 minutes under the race detector on one core, which pushes
		// the whole package past go test's default 10-minute timeout.
		// Byte-identity is already covered race-free; -race coverage of
		// the same machinery comes from the shards determinism test.
		t.Skip("too slow under -race; run without it")
	}
	checkGolden(t, "fig7a", "fig7a_memnodes4_short.csv", Options{MemNodes: 4})
}

// TestShardsCSVMatchesPreMigrateGolden pins the migration acceptance
// criterion: with migration disabled (the default) and no key skew, the
// shards CSV is byte-identical to the output of the tree before
// migration support existed. The golden in testdata/ was generated by
// the pre-migration adios-bench at -short -seed 1; any drift here means
// a disabled migrator changed the data plane's behaviour, not just
// grew an option.
func TestShardsCSVMatchesPreMigrateGolden(t *testing.T) {
	var opt Options
	opt.SetParallel(4) // byte-identical to sequential; see the determinism test
	checkGolden(t, "shards", "premigrate_shards_short.csv", opt)
}

// TestShardsDeterministicAcrossParallel is the cross-node determinism
// check: the shards sweep at seed 1 must emit byte-identical tables and
// CSV whether its points run one at a time or fanned across goroutines,
// because every point derives its own seed and owns its sim.Env.
func TestShardsDeterministicAcrossParallel(t *testing.T) {
	var par Options
	par.SetParallel(4)
	t2, c1 := shortCSV(t, "shards", par)
	if !raceEnabled {
		// The sequential reference run doubles the test's cost for a
		// byte-compare that has no concurrency of its own; under -race
		// keep only the parallel fan-out (the race-sensitive half) so
		// the package stays inside go test's default timeout.
		t1, c1seq := shortCSV(t, "shards", Options{})
		if t1 != t2 {
			t.Fatalf("table differs sequential vs parallel:\n%s\n---\n%s", t1, t2)
		}
		if c1seq != c1 {
			t.Fatalf("CSV differs sequential vs parallel:\n%s\n---\n%s", c1seq, c1)
		}
	}
	if !strings.Contains(c1, "shards,Adios@n4,") || !strings.Contains(c1, "shards,DiLOS@n1,") {
		t.Fatalf("CSV missing expected series:\n%s", c1)
	}
	// The blast-radius rows ride in the same experiment slug.
	if !strings.Contains(c1, "shards,Adios@n4+stall-n0,") {
		t.Fatalf("CSV missing faulted-stripe series:\n%s", c1)
	}
	if strings.Count(c1, CSVHeader) != 1 {
		t.Fatalf("two tables of one run must share one header row:\n%s", c1)
	}
}

// TestRehomeCSVsMatchGolden pins the two experiments whose numbers come
// from moving pages between memory nodes: failover (crash repair) and
// rebalance (hot-page migration), at -short -seed 1. The goldens were
// generated by the tree that still had one copy executor per subsystem,
// so any drift means the shared re-home engine repairs or migrates on a
// different schedule, not merely through different code.
func TestRehomeCSVsMatchGolden(t *testing.T) {
	for _, id := range []string{"failover", "rebalance"} {
		t.Run(id, func(t *testing.T) { checkGolden(t, id, id+"_short.csv", Options{}) })
	}
}

// TestFailoverRunsUnderThePlan: failover adds its crash to the options'
// fault plan rather than replacing it, so even its no-crash reference
// points retry the completion errors the plan injects.
func TestFailoverRunsUnderThePlan(t *testing.T) {
	opt := shortOpt()
	opt.Faults = faults.Config{WRErrRate: 0.02}
	sweep := mustRun(t, "failover", opt).Sweeps[0]
	for _, key := range []string{"r1+nocrash", "r2+nocrash"} {
		if pts := sweep[key]; len(pts) != 1 || pts[0].Stats["paging.fetch_retries"] == 0 {
			t.Fatalf("%s under wr=0.02 retried no fetch: the plan was dropped (%d points)", key, len(pts))
		}
	}
}
