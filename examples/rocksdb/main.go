// RocksDB example: the paper's high-dispersion workload — 99% GET mixed
// with 1% SCAN(100) over a PlainTable-style sorted table in remote
// memory. Compares DiLOS, DiLOS-P (Concord-style preemption, which helps
// here), and Adios, reporting per-class latency as in Figure 11.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sstable"
)

func main() {
	const load = 700_000
	cfg := sstable.DefaultConfig(120_000, 1024)
	size := sstable.Footprint(cfg)

	fmt.Printf("Sorted table: 120k x 1KiB records, 99%% GET / 1%% SCAN(100), %.0fK req/s\n\n", load/1000.0)
	fmt.Printf("%-8s %9s | %9s %10s | %9s %10s\n",
		"system", "tput_K", "GET_p50", "GET_p99.9", "SCAN_p50", "SCAN_p99.9")
	for _, mode := range []core.Mode{core.DiLOS, core.DiLOSP, core.Adios} {
		sys := core.NewSystem(core.Preset(mode, size/5))
		tab := sstable.New(sys.Mgr, sys.Mem, cfg)
		tab.WarmCache()
		sys.StartApp(tab)
		res := sys.Run(tab, load, sim.Millis(30), sim.Millis(120))
		get := res.Gen.ByClass["GET"]
		scan := res.Gen.ByClass["SCAN"]
		fmt.Printf("%-8s %9.0f | %9.1f %10.1f | %9.1f %10.1f\n",
			mode, res.TputK,
			sim.Time(get.P50()).Micros(), sim.Time(get.P999()).Micros(),
			sim.Time(scan.P50()).Micros(), sim.Time(scan.P999()).Micros())
	}
	fmt.Println("\nSCANs block GETs under busy-waiting (HOL); preemption helps, yielding wins.")
}
