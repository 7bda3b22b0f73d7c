package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Example demonstrates the minimal end-to-end use of the library: build
// an Adios system over a remote array, drive it with an open-loop load,
// and read back the result.
func Example() {
	const arrayBytes = 8 << 20
	cfg := core.Preset(core.Adios, arrayBytes/5) // 20% local DRAM
	cfg.Seed = 7
	sys := core.NewSystem(cfg)

	app := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
	app.WarmCache()
	sys.StartApp(app)

	res := sys.Run(app, 400_000, sim.Millis(2), sim.Millis(10))
	fmt.Printf("served ~all: %v\n", res.TputK > 380)
	fmt.Printf("microsecond-scale p99.9: %v\n", res.P999us < 50)
	fmt.Printf("busy-wait cycles: %d\n", sys.Sched.BusyWaitCycles())
	fmt.Printf("verified mismatches: %d\n", app.Mismatches.Value())
	// Output:
	// served ~all: true
	// microsecond-scale p99.9: true
	// busy-wait cycles: 0
	// verified mismatches: 0
}

// Example_comparison runs the same workload under the busy-waiting
// baseline (DiLOS) and the yield-based system (Adios) at a load near the
// baseline's saturation point — the paper's headline comparison.
func Example_comparison() {
	const arrayBytes = 32 << 20
	run := func(mode core.Mode) core.RunResult {
		cfg := core.Preset(mode, arrayBytes/5)
		cfg.Seed = 3
		sys := core.NewSystem(cfg)
		app := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
		app.WarmCache()
		sys.StartApp(app)
		return sys.Run(app, 1_400_000, sim.Millis(5), sim.Millis(25))
	}
	dilos := run(core.DiLOS)
	adios := run(core.Adios)
	fmt.Printf("adios tail well below dilos: %v\n", adios.P999us*2 < dilos.P999us)
	fmt.Printf("adios throughput >= dilos: %v\n", adios.TputK >= dilos.TputK)
	// Output:
	// adios tail well below dilos: true
	// adios throughput >= dilos: true
}
