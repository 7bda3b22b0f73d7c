package explore

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/simcheck"
)

// Mutation smoke: each case pairs one seeded bug — a source edit in
// testdata/mutants.txt — with a scenario constructed to trigger it and
// the oracle expected to catch it. scripts/mutate.go -smoke builds the
// package with one edit applied through -overlay and runs
// TestMutationsAreCaught -mutant=NAME, which asserts the oracle fires
// with a deterministic violation. This is the proof that the checker
// checks — an oracle that never fires is indistinguishable from one
// that is wired to nothing. The bugs are not in the product: without
// -mutant the same scenarios run on the tree as it is and must be clean.

var mutant = flag.String("mutant", "", "name of the seeded bug (testdata/mutants.txt) this build carries; empty: none")

// mutationCase pairs a mutation with a scenario guaranteed to trigger
// it and the oracle(s) allowed to catch it.
type mutationCase struct {
	mutation string
	scenario Scenario
	// started, when not nil, sees the system before the load (run's
	// seam).
	started func(*core.System)
	// oracles lists acceptable oracle-name prefixes; empty = any
	// violation counts (the bug corrupts shared state, so which
	// downstream invariant trips first is timing-dependent — but still
	// deterministic for a fixed seed).
	oracles []string
}

func cases() []mutationCase {
	// A base scenario small and hot enough that every machine (reclaim,
	// write-back, fetch, wheel cascade) runs within 2 ms.
	base := Scenario{
		Seed:       11,
		Mode:       core.Adios,
		MemNodes:   1,
		Replicas:   1,
		ArrayBytes: 256 * pageSize,
		LocalFrac:  0.25,
		WriteFrac:  0.5,
		Warm:       true,
		RPS:        80_000,
		Warmup:     sim.Millis(0.5),
		Measure:    sim.Millis(2),
		Faults:     faults.Config{Seed: 3},
		Strict:     true,
	}
	replicated := base
	replicated.MemNodes = 2
	replicated.Replicas = 2

	// A replicated crash with migration off: node 1 of three dies
	// mid-window, reads of its pages fail over to their other copies, and
	// repair queues a copy of every page node 1 held. No migrator is
	// built.
	crashed := replicated
	crashed.MemNodes = 3
	crashed.Faults.CrashSet, crashed.Faults.CrashNode, crashed.Faults.CrashAt = true, 1, sim.Millis(1)

	// A scenario guaranteed to land owner flips: four nodes, a skewed
	// key draw, and a planner with its trigger floor on the ground —
	// Imbalance 1.0 fires every epoch (max >= mean always holds) and
	// withDefaults preserves it because it only fills zeros.
	migrated := base
	migrated.MemNodes = 4
	migrated.Skew = 1.3
	migrated.Warm = false // cold cache: every first touch faults, feeding the planner
	migrated.Migrate = migrate.Config{Enabled: true, Epoch: sim.Micros(50),
		HotThreshold: 1, Bandwidth: 4, Imbalance: 1.0, MaxMoves: 64, MinFaults: 1}

	// SyncTx (DiLOS): the worker's completion runs after the generator has
	// taken delivery of the response.
	syncTx := base
	syncTx.Mode = core.DiLOS

	return []mutationCase{
		{
			// Reclaimer treats dirty pages as clean: the frame is freed
			// before its write-back, which freeFrame's oracle sees at the
			// first dirty eviction.
			mutation: "paging-dirty-free",
			scenario: base,
			oracles:  []string{"paging/dirty-free"},
		},
		{
			// Every CQ completion is delivered twice: either the QP ledger
			// goes negative (rdma/complete-once) or the duplicate reaches
			// the paging state machine on a page no longer in flight.
			mutation: "rdma-double-complete",
			scenario: base,
			oracles:  nil,
		},
		{
			// The wheel cascade drops the last event of each migrated
			// bucket: the pending count stops matching the filed events,
			// and a dropped resume strands its waiter (sim/lost-wakeup).
			mutation: "sim-cascade-drop",
			scenario: base,
			oracles:  []string{"sim/"},
		},
		{
			// The clock-advance fast path's level scan calls an event due
			// at the wake time later than it: a Sleep or Yield skips ahead
			// past it, and the event then dispatches behind the skip.
			mutation: "sim-peek-beyond",
			scenario: base,
			oracles:  []string{"sim/dispatch-order"},
		},
		{
			// A cascaded bucket donates its array to the spare list but
			// keeps holding it: the next bucket to take that array shares
			// it, and the two overwrite each other's events.
			mutation: "sim-spare-keep",
			scenario: base,
			oracles:  []string{"sim/"},
		},
		{
			// Replica copies are never charged to their nodes: the
			// replica-aware capacity recomputation disagrees with the
			// ledger at audit time.
			mutation: "memnode-undercharge",
			scenario: replicated,
			oracles:  []string{"memnode/capacity"},
		},
		{
			// A migration commits without re-homing the page: the
			// migrator's books say the page moved, the owner table still
			// points at the source. The owner-table oracle sees the
			// disagreement at the landing.
			mutation: "migrate_lost_owner",
			scenario: migrated,
			oracles:  []string{"migrate/"},
		},
		{
			// The repair engine parks with its queue full: no Kick comes,
			// no copy is restored, and the run ends with an idle engine and
			// jobs queued — a run with no migrator, whose owner table the
			// audit still checks.
			mutation: "rehome-idle-early",
			scenario: crashed,
			oracles:  []string{"migrate/state-machine"},
		},
		{
			// The dispatcher assigns a request and never wakes the idle
			// worker. The cores are tasks, invisible to sim/lost-wakeup
			// (it walks parked processes); the audit finds workers asleep
			// on their idle gates with full inboxes.
			mutation: "sched-drop-idle-wake",
			scenario: base,
			oracles:  []string{"sched/core-liveness"},
		},
		{
			// The generator recycles a packet at delivery without waiting
			// for the node to retire the request — the one-line version of
			// packet pooling. Under SyncTx the node completes and retires
			// after delivery, holding a packet that is on the free list or
			// already carrying the next request.
			mutation: "packet-early-release",
			scenario: syncTx,
			oracles:  []string{"ethernet/packet-lifetime"},
		},
		{
			// The failure detector reaches its threshold and never
			// declares the node dead: it goes on striking the crashed
			// node, and the strike counter passes the threshold.
			mutation: "health-no-verdict",
			scenario: crashed,
			oracles:  []string{"rdma/strike-dead"},
		},
		{
			// DirtyPage leaves the page clean: the store lands in the
			// region, the reclaimer evicts the page clean, and real
			// hardware would drop the store with the frame. The array's
			// stores rewrite the seeded value, which changes no byte, so
			// one page of a second space takes a store that does.
			mutation: "paging-store-clean",
			scenario: base,
			started:  storeOnce,
			oracles:  []string{"paging/clean-store"},
		},
	}
}

// storeOnce warms a one-page space beside the array and stores a byte
// that changes it; the run's reclaim evicts the page.
func storeOnce(sys *core.System) {
	sp := sys.Mgr.NewSpace("scratch", sys.Mem.MustAlloc("scratch", pageSize))
	sp.Preload(0, pageSize)
	sp.DirtyPage(0)[0] = 1
}

// TestMutationsAreCaught runs every case on the tree as it is and
// asserts it is clean; with -mutant=NAME (a build carrying that edit) it
// runs that case alone and asserts the expected oracle catches the bug,
// identically on a re-run.
func TestMutationsAreCaught(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)

	found := false
	for _, mc := range cases() {
		if *mutant != "" && mc.mutation != *mutant {
			continue
		}
		found = true
		t.Run(mc.mutation, func(t *testing.T) {
			res := run(mc.scenario, mc.started)
			if *mutant == "" {
				if res.Failed() {
					t.Fatalf("scenario of %s fails without the bug: %v", mc.mutation, res.Violations)
				}
				return
			}
			if !res.Failed() {
				t.Fatalf("mutation %s survived the oracles (completed %d)", mc.mutation, res.Completed)
			}
			first := res.Violations[0].Error()
			if len(mc.oracles) > 0 {
				matched := false
				for _, want := range mc.oracles {
					if strings.HasPrefix(first, want) {
						matched = true
					}
				}
				if !matched {
					t.Fatalf("mutation %s caught by unexpected oracle: %s", mc.mutation, first)
				}
			}
			// The repro contract: the same scenario catches the same bug
			// with the identical violation, so the one-line repro is real.
			again := run(mc.scenario, mc.started)
			if !again.Failed() || again.Violations[0].Error() != first {
				t.Fatalf("mutation %s not deterministic:\n first: %s\n again: %v",
					mc.mutation, first, again.Violations)
			}
			t.Logf("caught by %s", first)
		})
	}
	if !found {
		t.Fatalf("no case named %q", *mutant)
	}
}

// TestNamedEditsMatchOnce: every seeded bug of testdata/mutants.txt has
// a case, every case has an edit, and each edit's old text occurs
// exactly once in its file, so an edit cannot go stale or land twice.
func TestNamedEditsMatchOnce(t *testing.T) {
	raw, err := os.ReadFile("testdata/mutants.txt")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("short line: %s", line)
		}
		name, file := f[0], f[1]
		rest := strings.TrimSpace(line[strings.Index(line, file)+len(file):])
		old, rest, err := unquote(rest)
		if err != nil {
			t.Fatalf("%s: old: %v", name, err)
		}
		if _, rest, err = unquote(strings.TrimSpace(rest)); err != nil || strings.TrimSpace(rest) != "" {
			t.Fatalf("%s: new: %v %q", name, err, rest)
		}
		src, err := os.ReadFile(filepath.Join("..", "..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), old); n != 1 {
			t.Errorf("%s: old text occurs %d times in %s, want 1: %q", name, n, file, old)
		}
		named[name] = true
	}
	for _, mc := range cases() {
		if !named[mc.mutation] {
			t.Errorf("case %s has no edit in testdata/mutants.txt", mc.mutation)
		}
		delete(named, mc.mutation)
	}
	for name := range named {
		t.Errorf("edit %s has no case", name)
	}
}

// unquote splits the Go string literal at the head of s from the rest.
func unquote(s string) (string, string, error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", s, err
	}
	v, err := strconv.Unquote(q)
	return v, s[len(q):], err
}
