package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// buildMicro assembles a system over the microbenchmark array with the
// given local-DRAM fraction of the array size.
func buildMicro(mode Mode, arrayBytes int64, localFrac float64, seed int64) (*System, *workload.ArrayApp) {
	local := int64(localFrac * float64(arrayBytes))
	cfg := Preset(mode, local)
	cfg.Seed = seed
	sys := NewSystem(cfg)
	app := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
	app.WarmCache()
	sys.StartApp(app)
	return sys, app
}

const testArray = 32 << 20 // 32 MiB array, 20% local → same miss ratio as the paper's 40 GB

func TestAdiosEndToEnd(t *testing.T) {
	sys, app := buildMicro(Adios, testArray, 0.20, 1)
	res := sys.Run(app, 500_000, sim.Millis(5), sim.Millis(20))
	if res.Completed < 8000 {
		t.Fatalf("completed = %d, want thousands", res.Completed)
	}
	if app.Mismatches.Value() != 0 {
		t.Fatalf("data mismatches = %d", app.Mismatches.Value())
	}
	if res.TputK < 450 || res.TputK > 550 {
		t.Fatalf("throughput = %.0f KRPS at 500 offered", res.TputK)
	}
	// At moderate load Adios should be comfortably microsecond-scale.
	if res.P50us < 2 || res.P50us > 20 {
		t.Fatalf("P50 = %.1fus, want single-digit us", res.P50us)
	}
	if res.P999us > 100 {
		t.Fatalf("P99.9 = %.1fus, want well under 100us at half load", res.P999us)
	}
	if sys.Mgr.Faults.Value() == 0 {
		t.Fatal("expected page faults at 20% local memory")
	}
	if res.LinkUtil <= 0 || res.LinkUtil > 1 {
		t.Fatalf("link utilization = %v", res.LinkUtil)
	}
}

func TestDiLOSEndToEnd(t *testing.T) {
	sys, app := buildMicro(DiLOS, testArray, 0.20, 1)
	res := sys.Run(app, 500_000, sim.Millis(5), sim.Millis(20))
	if res.Completed < 8000 || app.Mismatches.Value() != 0 {
		t.Fatalf("completed=%d mismatches=%d", res.Completed, app.Mismatches.Value())
	}
	if res.P50us < 2 || res.P50us > 30 {
		t.Fatalf("P50 = %.1fus", res.P50us)
	}
	// The scheduler must report busy-wait cycles under DiLOS and none
	// under Adios.
	if sys.Sched.BusyWaitCycles() == 0 {
		t.Fatal("DiLOS reported zero busy-wait cycles")
	}
}

func TestAdiosHasNoBusyWait(t *testing.T) {
	sys, app := buildMicro(Adios, testArray, 0.20, 1)
	sys.Run(app, 300_000, sim.Millis(2), sim.Millis(8))
	if sys.Sched.BusyWaitCycles() != 0 {
		t.Fatalf("Adios busy-wait cycles = %d, want 0", sys.Sched.BusyWaitCycles())
	}
}

func TestAdiosBeatsDiLOSTailUnderLoad(t *testing.T) {
	// Near DiLOS's saturation point the yield-based handler must deliver
	// a dramatically better tail and at least as much throughput — the
	// headline claim (Figure 7).
	const load = 1_600_000
	sysD, appD := buildMicro(DiLOS, testArray, 0.20, 1)
	resD := sysD.Run(appD, load, sim.Millis(5), sim.Millis(25))
	sysA, appA := buildMicro(Adios, testArray, 0.20, 1)
	resA := sysA.Run(appA, load, sim.Millis(5), sim.Millis(25))

	if resA.TputK < resD.TputK*0.99 {
		t.Fatalf("Adios tput %.0fK < DiLOS %.0fK", resA.TputK, resD.TputK)
	}
	if resA.P999us >= resD.P999us {
		t.Fatalf("Adios P99.9 %.1fus not better than DiLOS %.1fus", resA.P999us, resD.P999us)
	}
	if resA.LinkUtil <= resD.LinkUtil {
		t.Fatalf("Adios link util %.2f not above DiLOS %.2f", resA.LinkUtil, resD.LinkUtil)
	}
}

func TestOverloadDropsNotDeadlock(t *testing.T) {
	// Far beyond saturation the open-loop system must shed load and keep
	// serving, not wedge.
	sys, app := buildMicro(DiLOS, testArray, 0.20, 1)
	res := sys.Run(app, 4_000_000, sim.Millis(5), sim.Millis(20))
	if res.Drops == 0 {
		t.Fatal("expected drops at 4 MRPS offered")
	}
	if res.TputK < 500 {
		t.Fatalf("throughput collapsed to %.0fK under overload", res.TputK)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (RunResult, int64) {
		sys, app := buildMicro(Adios, 8<<20, 0.20, 42)
		res := sys.Run(app, 400_000, sim.Millis(2), sim.Millis(8))
		return res, sys.Mgr.Faults.Value()
	}
	a, fa := run()
	b, fb := run()
	if a.Completed != b.Completed || a.P999us != b.P999us || fa != fb || a.TputK != b.TputK {
		t.Fatalf("same-seed runs diverge: %+v (%d faults) vs %+v (%d faults)", a, fa, b, fb)
	}
}

func TestModePresetsDiffer(t *testing.T) {
	for _, m := range []Mode{Adios, DiLOS, DiLOSP, Hermit, Infiniswap} {
		cfg := Preset(m, 1<<20)
		if cfg.Mode != m {
			t.Fatalf("preset mode mismatch for %v", m)
		}
		if m.String() == "unknown" {
			t.Fatalf("mode %d has no name", m)
		}
	}
	if Preset(Adios, 1<<20).Sched.Preempt || !Preset(DiLOSP, 1<<20).Sched.Preempt {
		t.Fatal("preemption preset wrong")
	}
}
