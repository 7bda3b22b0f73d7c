// Vector-search example: the paper's Faiss workload. Builds an IVF-Flat
// index over synthetic clustered vectors in remote memory, serves
// similarity queries at a fixed rate, and verifies answer quality
// (recall against exact brute force) alongside the latency comparison —
// the milliseconds-scale regime of Figure 13.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vecdb"
)

func main() {
	cfg := vecdb.DefaultConfig(60_000)
	bp := vecdb.NewBlueprint(cfg)
	size := vecdb.Footprint(cfg)
	const load = 2000 // queries/second

	fmt.Printf("IVF-Flat: %d x %dd vectors (%.0f MiB), nlist=%d nprobe=%d, %d QPS\n\n",
		cfg.N, cfg.Dim, float64(size)/(1<<20), cfg.NList, cfg.NProbe, int(load))
	fmt.Printf("%-8s %8s %10s %10s %11s\n", "system", "tput", "p50_ms", "p99_ms", "recall@10")

	for _, mode := range []core.Mode{core.DiLOS, core.Adios} {
		sys := core.NewSystem(core.Preset(mode, size/5))
		idx := bp.Instantiate(sys.Mgr, sys.Mem)
		idx.WarmCache()
		sys.StartApp(idx)
		res := sys.Run(idx, load, sim.Millis(100), sim.Millis(600))

		// Sample recall against brute force on the final state.
		rng := sim.NewRNG(5)
		recall := 0.0
		const trials = 10
		for i := 0; i < trials; i++ {
			payload, _ := idx.NextRequest(rng, nil)
			q := payload.(*vecdb.Query)
			exact := idx.BruteForce(q.Vec)
			got := map[uint32]bool{}
			for _, n := range exact.Neighbors {
				got[n.ID] = true
			}
			approx := idx.SearchDirect(q.Vec)
			match := 0
			for _, n := range approx.Neighbors {
				if got[n.ID] {
					match++
				}
			}
			recall += float64(match) / float64(len(exact.Neighbors))
		}
		fmt.Printf("%-8s %8.0f %10.2f %10.2f %11.2f\n",
			mode, res.TputK*1000, res.P50us/1000, res.P99us/1000, recall/trials)
	}
	fmt.Println("\nLong multi-fault queries make busy-waiting saturate early; yielding overlaps them.")
}
