// Quickstart: build an Adios system, point the microbenchmark workload
// at it, and read back throughput and tail latency — the minimal
// end-to-end use of the library.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// A 64 MiB remote array with a local DRAM cache covering 20% of it —
	// the paper's standard memory configuration.
	const arrayBytes = 64 << 20
	cfg := core.Preset(core.Adios, arrayBytes/5)
	sys := core.NewSystem(cfg)

	// Applications allocate their state in paged remote memory, then the
	// system starts serving their handler.
	app := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
	app.WarmCache()
	sys.StartApp(app)

	// Drive it with an open-loop Poisson load and measure.
	res := sys.Run(app, 1_300_000, sim.Millis(10), sim.Millis(50))

	fmt.Printf("Adios @ %.1f MRPS offered:\n", res.OfferedK/1000)
	fmt.Printf("  throughput   %.2f MRPS\n", res.TputK/1000)
	fmt.Printf("  latency      p50 %.1fus, p99 %.1fus, p99.9 %.1fus\n",
		res.P50us, res.P99us, res.P999us)
	fmt.Printf("  page faults  %d (all yielded, zero busy-wait cycles: %d)\n",
		res.Faults, sys.Sched.BusyWaitCycles())
	fmt.Printf("  RDMA link    %.0f%% utilized\n", res.LinkUtil*100)
}
