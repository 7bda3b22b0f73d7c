//go:build simcheckmutate

package explore

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/simcheck"
)

// Mutation smoke tests: each deliberately re-introduces a class of bug
// (build tag simcheckmutate) into a scenario constructed to trigger it,
// and asserts the oracles catch it with a deterministic violation. This
// is the proof that the checker checks — an oracle that never fires is
// indistinguishable from one that is wired to nothing.

// mutationCase pairs a mutation with a scenario guaranteed to trigger
// it and the oracle(s) allowed to catch it.
type mutationCase struct {
	mutation string
	scenario Scenario
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
	}
}

func TestMutationsAreCaught(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	defer simcheck.SetMutation("")

	distinct := map[string]bool{}
	for _, mc := range cases() {
		t.Run(mc.mutation, func(t *testing.T) {
			simcheck.SetMutation(mc.mutation)
			defer simcheck.SetMutation("")
			res := Run(mc.scenario)
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
			again := Run(mc.scenario)
			if !again.Failed() || again.Violations[0].Error() != first {
				t.Fatalf("mutation %s not deterministic:\n first: %s\n again: %v",
					mc.mutation, first, again.Violations)
			}
			distinct[oracleName(first)] = true
			t.Logf("caught by %s", first)
		})
	}
	if len(distinct) < 3 {
		t.Fatalf("only %d distinct oracles fired across mutations: %v", len(distinct), distinct)
	}
}

// TestMutationsNeedArming: with the checker disarmed (and no simcheck
// build tag), a mutated run must still fail — through the audit's
// always-on sweeps — or at minimum not corrupt silently. This pins the
// division of labour: hot-path oracles need arming, audit sweeps don't.
func TestSanityCleanUnderMutationBuildWithoutMutation(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	simcheck.SetMutation("")
	res := Run(cases()[0].scenario)
	if res.Failed() {
		t.Fatalf("mutation build with no active mutation failed: %v", res.Violations)
	}
}

func oracleName(violation string) string {
	if i := strings.IndexByte(violation, ':'); i > 0 {
		return violation[:i]
	}
	return violation
}
