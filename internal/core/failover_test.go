package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildStriped assembles a replicated multi-node system over the
// microbenchmark array with a fault plan; writeFrac of the requests
// store (0 is the paper's read-only microbenchmark).
func buildStriped(arrayBytes int64, seed int64, nodes, replicas int, writeFrac float64,
	fl faults.Config) (*System, *workload.ArrayApp) {
	cfg := Preset(Adios, int64(0.20*float64(arrayBytes)))
	cfg.Seed = seed
	cfg.MemNodes = nodes
	cfg.Replicas = replicas
	cfg.Faults = fl
	sys := NewSystem(cfg)
	app := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
	app.WriteFrac = writeFrac
	app.WarmCache()
	sys.StartApp(app)
	return sys, app
}

const (
	chaosArray   = 8 << 20 // 2048 pages over 4 nodes
	chaosNodes   = 4
	chaosVictim  = 1
	chaosCrashMs = 5.0
)

var chaosCrash = faults.Config{
	CrashAt: sim.Millis(chaosCrashMs), CrashNode: chaosVictim, CrashSet: true,
}

// count is the sum of the named entries of a Stats snapshot, as a count.
func count(snap map[string]float64, names ...string) int64 {
	var n float64
	for _, name := range names {
		n += snap[name]
	}
	return int64(n)
}

// chaosRun is one crash run's shape: the replication factor and the
// share of requests that store. Stores dirty pages, so a writing run
// also drives dirty write-backs into the dead node.
type chaosRun struct {
	replicas  int
	writeFrac float64
}

// chaosRuns are the pinned crash runs: read-only and half-writing, each
// unreplicated and at two copies.
var chaosRuns = []chaosRun{{1, 0}, {2, 0}, {1, 0.5}, {2, 0.5}}

// runChaos drives one crash run and returns its result and the counts
// snapshotted after it, plus a digest of everything the failover
// machinery decided: detection time, fault and failover counters, and
// the repairer's order-sensitive schedule hash. A writing run's digest
// adds the write-back counters and each node's timeout count.
func runChaos(t *testing.T, seed int64, run chaosRun) (RunResult, map[string]float64, string) {
	t.Helper()
	sys, app := buildStriped(chaosArray, seed, chaosNodes, run.replicas, run.writeFrac, chaosCrash)
	res := sys.Run(app, 400_000, sim.Millis(2), sim.Millis(8))
	if app.Mismatches.Value() != 0 {
		t.Fatalf("%+v: data mismatches = %d", run, app.Mismatches.Value())
	}
	c := sys.Stats.Snapshot()
	digest := fmt.Sprintf(
		"completed=%d tput=%v aborts=%d retries=%d failovers=%d repaired=%d p999=%v "+
			"timeouts=%d detected=%d downAt=%d repairHash=%#x unrepairable=%d pending=%d",
		res.Completed, res.TputK, res.Aborts, count(c, "paging.fetch_retries", "paging.writeback_retries"),
		count(c, "paging.failover_reads"), count(c, "repair.repaired"),
		res.P999us, count(c, "memnode0.timeout_errors", "memnode1.timeout_errors",
			"memnode2.timeout_errors", "memnode3.timeout_errors"), sys.Health.Detected.Value(),
		sys.Health.DownAt(chaosVictim), sys.Repair.ScheduleHash(),
		sys.Repair.Unrepairable.Value(), sys.Repair.Pending())
	if run.writeFrac > 0 {
		digest += fmt.Sprintf(" wbRetries=%d dirty=%d replicaWrites=%d nodeTimeouts=%d/%d/%d/%d",
			count(c, "paging.writeback_retries"), count(c, "paging.dirty_writebacks"),
			count(c, "paging.replica_writes"), count(c, "memnode0.timeout_errors"),
			count(c, "memnode1.timeout_errors"), count(c, "memnode2.timeout_errors"),
			count(c, "memnode3.timeout_errors"))
	}
	return res, c, digest
}

// TestFailoverDeterministic is the crash-at-a-fixed-cycle chaos test:
// two identically seeded runs that lose a node mid-measurement must
// agree byte-for-byte on results, counters, detection time, and the
// repair schedule. Run under -race in CI, this also exercises the
// failover, write-back and repair paths for data races.
func TestFailoverDeterministic(t *testing.T) {
	for _, run := range chaosRuns {
		_, _, d1 := runChaos(t, 7, run)
		_, _, d2 := runChaos(t, 7, run)
		if d1 != d2 {
			t.Fatalf("%+v: same-seed crash runs diverge:\n%s\n%s", run, d1, d2)
		}
	}
}

// chaosDigestPins are runChaos(seed 7) digests. The read-only rows were
// recorded at the tree that still had a repair executor of its own, the
// writing rows at the tree whose unreplicated write-backs still had a
// recovery path apart from the fan-out's. The
// run-against-run comparison above cannot see a refactor that shifts
// every repair or write-back retry by one event, these can. A change
// that is meant to move the schedule regenerates them in its own commit
// and says so.
var chaosDigestPins = map[chaosRun]string{
	{1, 0}:   "completed=3944 tput=388.75 aborts=475 retries=0 failovers=0 repaired=0 p999=18.0475 timeouts=475 detected=1 downAt=10050000 repairHash=0x14650fb0739d0383 unrepairable=512 pending=0",
	{2, 0}:   "completed=3944 tput=388.75 aborts=0 retries=5 failovers=314 repaired=1024 p999=30.5085 timeouts=5 detected=1 downAt=10050000 repairHash=0x4e0cc6b2e5134013 unrepairable=0 pending=0",
	{1, 0.5}: "completed=2210 tput=178.125 aborts=51 retries=3476 failovers=0 repaired=0 p999=18.0475 timeouts=3534 detected=1 downAt=10050000 repairHash=0x14650fb0739d0383 unrepairable=512 pending=0 wbRetries=3476 dirty=762 replicaWrites=0 nodeTimeouts=0/3534/0/0",
	{2, 0.5}: "completed=3902 tput=389.25 aborts=0 retries=2 failovers=284 repaired=1024 p999=11.4555 timeouts=2 detected=1 downAt=10050000 repairHash=0xa225497aaaab07b8 unrepairable=0 pending=0 wbRetries=0 dirty=1647 replicaWrites=1305 nodeTimeouts=0/2/0/0",
}

// TestFailoverDigestPinned holds the crash runs to the recorded digests.
func TestFailoverDigestPinned(t *testing.T) {
	for _, run := range chaosRuns {
		if _, _, d := runChaos(t, 7, run); d != chaosDigestPins[run] {
			t.Errorf("%+v: crash digest moved:\n got %s\nwant %s",
				run, d, chaosDigestPins[run])
		}
	}
}

// TestReplicatedCrashLosesNothing pins the headline robustness claim:
// with replicas=2 a mid-run node death aborts zero requests — every
// fetch of the dead stripe fails over to the surviving copy — and
// background repair restores exactly the copies the dead node held.
// The same run unreplicated loses the dead stripe's share instead.
func TestReplicatedCrashLosesNothing(t *testing.T) {
	res2, c2, _ := runChaos(t, 7, chaosRun{2, 0})
	if res2.Aborts != 0 {
		t.Fatalf("replicas=2: %d requests aborted across a node death", res2.Aborts)
	}
	if count(c2, "paging.failover_reads") == 0 {
		t.Fatal("replicas=2: no failover reads despite a dead primary")
	}
	// Node 1 holds the primary of every page p ≡ 1 (mod 4) and the
	// replica of every page p ≡ 0 (mod 4): half the pages, one copy each.
	const pages = chaosArray / (4 << 10)
	if want := int64(pages / 2); count(c2, "repair.repaired") != want {
		t.Fatalf("replicas=2: repaired %d copies, want %d (the dead node's holdings)",
			count(c2, "repair.repaired"), want)
	}

	res1, c1, _ := runChaos(t, 7, chaosRun{1, 0})
	if res1.Aborts == 0 {
		t.Fatal("replicas=1: node death aborted nothing — blast radius lost")
	}
	if count(c1, "repair.repaired") != 0 {
		t.Fatalf("replicas=1: repaired %d copies with no surviving source", count(c1, "repair.repaired"))
	}
	// Sanity on the blast radius: the dead stripe is a quarter of the
	// working set, so aborts are a visible share of post-crash traffic
	// but nowhere near all of it.
	if frac := float64(res1.Aborts) / float64(res1.Completed+res1.Aborts); frac < 0.01 || frac > 0.6 {
		t.Fatalf("replicas=1: abort fraction %.3f outside sane blast radius", frac)
	}
}

// TestCrashFreeReplicatedRunsClean: replication without a crash changes
// capacity accounting and write-back fan-out but must not abort, fail
// over, or repair anything.
func TestCrashFreeReplicatedRuns(t *testing.T) {
	sys, app := buildStriped(chaosArray, 7, chaosNodes, 2, 0, faults.Config{})
	res := sys.Run(app, 400_000, sim.Millis(2), sim.Millis(8))
	if failovers := sys.Mgr.FailoverReads.Value(); app.Mismatches.Value() != 0 || res.Aborts != 0 || failovers != 0 {
		t.Fatalf("crash-free replicated run: mismatches=%d aborts=%d failovers=%d",
			app.Mismatches.Value(), res.Aborts, failovers)
	}
	if sys.Health != nil || sys.Repair != nil {
		t.Fatal("crash-free run built the failure detector")
	}
	if res.Completed < 1000 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

// TestCrashPlanValidatesNode: a plan naming a node outside the topology
// — to crash, or to restrict itself to — and a topology wider than the
// 64-bit node masks must fail fast at build time, not misroute at crash
// time, inject nothing, or drop node 64 out of every owner set.
func TestCrashPlanValidatesNode(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		plan  faults.Config
	}{
		{"crash node", 4, faults.Config{CrashAt: sim.Millis(1), CrashNode: 4, CrashSet: true}},
		{"node restriction", 4, faults.Config{WRErrRate: 0.1, Node: 4, NodeSet: true}},
		{"too many nodes", MaxMemNodes + 1, faults.Config{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", tc.name)
				}
			}()
			buildStriped(chaosArray, 1, tc.nodes, 2, 0, tc.plan)
		}()
	}
}
