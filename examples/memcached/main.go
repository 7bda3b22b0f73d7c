// Memcached example: the paper's §5.2 key-value workload. Runs the same
// GET load against DiLOS (busy-wait) and Adios (yield) and prints the
// side-by-side the paper's Figure 10 plots: similar median at low load,
// an order of magnitude apart at the tail near saturation.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/sim"
)

func run(mode core.Mode, loadRPS float64) (core.RunResult, *kvs.Store) {
	cfg := kvs.DefaultConfig(300_000, 128)
	// Size local DRAM to 20% of the store.
	sys := core.NewSystem(core.Preset(mode, kvs.Footprint(cfg)/5))
	store := kvs.New(sys.Mgr, sys.Mem, cfg)
	store.WarmCache()
	sys.StartApp(store)
	return sys.Run(store, loadRPS, sim.Millis(20), sim.Millis(80)), store
}

func main() {
	const load = 950_000 // near DiLOS's knee for this store
	fmt.Printf("Memcached-like store: 300k keys x 128B values, 20%% local DRAM, %.0fK GET/s\n\n", load/1000.0)
	fmt.Printf("%-8s %10s %9s %9s %10s %12s\n", "system", "tput_KRPS", "p50_us", "p99_us", "p99.9_us", "mismatches")
	for _, mode := range []core.Mode{core.DiLOS, core.Adios} {
		res, store := run(mode, load)
		fmt.Printf("%-8s %10.0f %9.1f %9.1f %10.1f %12d\n",
			mode, res.TputK, res.P50us, res.P99us, res.P999us, store.Mismatches.Value())
	}
	fmt.Println("\nEvery GET response was verified against the seeded value content.")
}
