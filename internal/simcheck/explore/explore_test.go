package explore

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/simcheck"
)

// TestGenerateDeterministic: (seed, index) fully determines a scenario —
// the repro contract of the swarm.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a := Generate(7, i, true)
		b := Generate(7, i, true)
		if a.String() != b.String() || a.Seed != b.Seed {
			t.Fatalf("scenario %d not deterministic:\n%s\n%s", i, a, b)
		}
	}
	if Generate(7, 3, true).String() == Generate(8, 3, true).String() {
		t.Fatal("different master seeds produced the same scenario")
	}
}

// TestSwarmClean runs a handful of scenarios with oracles armed; they
// must all pass (this is a tiny in-process version of the CI sweep).
func TestSwarmClean(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	n := 6
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		sc := Generate(42, i, true)
		res := Run(sc)
		if res.Failed() {
			t.Errorf("%s\n  violations: %v\n  %s", sc, res.Violations, ReproLine(42, sc))
		}
	}
}

// TestGenerateDrawsValidConfigs: the sampler keeps its own copy of the
// build rules (at most MemNodes replicas, fault nodes in range,
// migration only on multi-node scenarios); this pins that copy to
// core.Config.Validate, the rules NewSystem enforces. Nothing is run.
func TestGenerateDrawsValidConfigs(t *testing.T) {
	for i := 0; i < 10_000; i++ {
		if sc := Generate(1, i, true); sc.config().Validate() != nil {
			t.Fatalf("%s: %v", sc, sc.config().Validate())
		}
	}
}

// TestScenarioVariety: the sampler must actually cover the interesting
// corners (replication, writes, crashes) within a modest prefix of the
// stream — a sampler that never draws them checks nothing.
func TestScenarioVariety(t *testing.T) {
	var replicated, writes, crashes, rejoins int
	modes := map[core.Mode]int{}
	for i := 0; i < 100; i++ {
		sc := Generate(1, i, true)
		modes[sc.Mode]++
		if sc.Replicas > 1 {
			replicated++
		}
		if sc.WriteFrac > 0 {
			writes++
		}
		if sc.Faults.CrashSet {
			crashes++
			if sc.Faults.RejoinSet {
				rejoins++
			}
		}
	}
	if replicated < 10 || writes < 10 || crashes < 10 || rejoins < 3 {
		t.Fatalf("sampler coverage too thin: replicated=%d writes=%d crashes=%d rejoins=%d",
			replicated, writes, crashes, rejoins)
	}
	// Yield and busy-wait, and on the busy-wait side preemption (DiLOS-P)
	// and kernel extras with jitter (Hermit).
	for _, m := range []core.Mode{core.Adios, core.DiLOS, core.DiLOSP, core.Hermit} {
		if modes[m] < 3 {
			t.Fatalf("sampler drew mode %v %d times in 100: %v", m, modes[m], modes)
		}
	}
}

// TestProcContextViolationIsReported: an oracle that fires deep inside
// the run (a worker core completing a request here; a handler on its
// coroutine in sched.TestHandlerPanicReachesRun) must unwind into Run's recover and
// come back as a violation with its repro line, not kill the swarm —
// and the next scenario in the same process must still run clean.
func TestProcContextViolationIsReported(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	for _, mode := range []core.Mode{core.Adios, core.DiLOS} {
		sc := Generate(42, 0, true)
		sc.Mode = mode
		sc.Faults = faults.Config{}
		completed := 0
		res := run(sc, func(sys *core.System) {
			sys.Sched.OnComplete = func(*sched.Request) {
				if completed++; completed == 10 {
					simcheck.Fail(simcheck.New("test/proc-context", "raised by a worker"))
				}
			}
		})
		if len(res.Violations) != 1 || !strings.HasPrefix(res.Violations[0].Error(), "test/proc-context") {
			t.Fatalf("%v: violations = %v, want the one raised in proc context", mode, res.Violations)
		}
		if again := Run(sc); again.Failed() {
			t.Fatalf("%v: clean rerun after a recovered violation failed: %v", mode, again.Violations)
		}
	}
}
