package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

// checkGolden compares an experiment's -short -seed 1 CSV under opt's
// settings against a file in testdata/.
func checkGolden(t *testing.T, id, golden string, opt Options) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, got := shortRun(t, id, opt); got != string(want) {
		t.Fatalf("%s CSV diverged from golden %s\ngot:\n%s\nwant:\n%s", id, golden, got, want)
	}
}

// TestSingleNodeCSVMatchesPreShardGolden guards the single-node,
// unreplicated data plane: at MemNodes 1 and Replicas 1 the resilience
// and fig7a CSVs must stay byte-identical to their goldens, so sharding
// and replication support stay options that change nothing when off.
// These options key the same run as the zero Options, which the digest
// rows read.
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

// TestFig7aMemNodes4MatchesGolden guards the event queue's dispatch
// order on a striped topology: fig7a at -memnodes 4 must emit CSV
// byte-identical to its golden.
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

// TestShardsCSVMatchesPreMigrateGolden guards the disabled migrator:
// with migration off (the default) and no key skew, the shards CSV must
// stay byte-identical to its golden, so a migrator that is not built
// changes nothing in the data plane.
func TestShardsCSVMatchesPreMigrateGolden(t *testing.T) {
	checkGolden(t, "shards", "premigrate_shards_short.csv", Options{})
}

// TestShardsDeterministicAcrossParallel is the cross-node determinism
// check: the shards sweep at seed 1 must emit byte-identical tables and
// CSV whether its points run one at a time or fanned across goroutines,
// because every point derives its own seed and owns its sim.Env.
func TestShardsDeterministicAcrossParallel(t *testing.T) {
	_, t2, c1 := shortRun(t, "shards", Options{})
	if !raceEnabled {
		// The sequential reference run doubles the test's cost for a
		// byte-compare that has no concurrency of its own; under -race
		// keep only the parallel fan-out (the race-sensitive half) so
		// the package stays inside go test's default timeout.
		_, t1, c1seq := runAt(t, "shards", Options{}, 1)
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

// TestRehomeCSVsMatchGolden guards the re-home engine's schedule: the
// two experiments whose numbers come from moving pages between memory
// nodes, failover (crash repair) and rebalance (hot-page migration),
// must emit CSV byte-identical to their goldens.
func TestRehomeCSVsMatchGolden(t *testing.T) {
	for _, id := range []string{"failover", "rebalance"} {
		t.Run(id, func(t *testing.T) { checkGolden(t, id, id+"_short.csv", Options{}) })
	}
}

// TestFailoverRunsUnderThePlan: failover adds its crash to the options'
// fault plan rather than replacing it, so even its no-crash reference
// points retry the completion errors the plan injects.
func TestFailoverRunsUnderThePlan(t *testing.T) {
	res, _, _ := shortRun(t, "failover", Options{Faults: faults.Config{WRErrRate: 0.02}})
	sweep := res.Sweeps[0]
	for _, key := range []string{"r1+nocrash", "r2+nocrash"} {
		if pts := sweep[key]; len(pts) != 1 || pts[0].Stats["paging.fetch_retries"] == 0 {
			t.Fatalf("%s under wr=0.02 retried no fetch: the plan was dropped (%d points)", key, len(pts))
		}
	}
}
