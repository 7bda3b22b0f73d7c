// TPC-C example: the paper's Silo OLTP workload. Runs the five-transaction
// TPC-C mix over paged remote tables, prints per-transaction latency, and
// then audits the database's consistency invariants — demonstrating that
// the simulated system executes real, serializable transactions.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tpcc"
)

func main() {
	const load = 330_000
	cfg := tpcc.DefaultConfig(1)
	size := tpcc.Footprint(cfg)

	fmt.Printf("TPC-C (W=1, %.0f MiB) at %.0fK txn/s, 20%% local DRAM\n\n",
		float64(size)/(1<<20), load/1000.0)
	fmt.Printf("%-8s %8s", "system", "tput_K")
	classes := []string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}
	for _, c := range classes {
		fmt.Printf(" %11s", c+"_p99")
	}
	fmt.Println()

	for _, mode := range []core.Mode{core.DiLOS, core.Adios} {
		sys := core.NewSystem(core.Preset(mode, size/5))
		db := tpcc.New(sys.Env, sys.Mgr, sys.Mem, cfg)
		db.WarmCache()
		sys.StartApp(db)
		res := sys.Run(db, load, sim.Millis(30), sim.Millis(120))
		fmt.Printf("%-8s %8.0f", mode, res.TputK)
		for _, c := range classes {
			h := res.Gen.ByClass[c]
			if h == nil {
				fmt.Printf(" %11s", "-")
				continue
			}
			fmt.Printf(" %10.1fu", sim.Time(h.P99()).Micros())
		}
		fmt.Println()

		// Consistency audit (TPC-C clause 3.3.2.1): W_YTD = sum(D_YTD).
		if err := db.CheckConsistency(); err != nil {
			fmt.Printf("  CONSISTENCY VIOLATION: %v\n", err)
		} else {
			fmt.Printf("  consistency: W_YTD==sum(D_YTD) and order-id monotonicity verified"+
				" (aborts=%d, lock conflicts=%d)\n", db.Aborts.Value(), db.Conflicts.Value())
		}
	}
}
