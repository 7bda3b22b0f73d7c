package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stripedMicro wraps the microbenchmark array app with a request
// classifier labelling each access with the memory node the static
// placement gives the touched page, so per-stripe latency is separable
// under per-node faults. The wrapper leaves the simulation untouched —
// classification only buckets the latency histograms.
type stripedMicro struct {
	*workload.ArrayApp
	pl memnode.Placement
}

func (s stripedMicro) Classify(payload any) string {
	idx := payload.(*workload.ArrayMsg).Index
	return fmt.Sprintf("n%d", s.pl.Owner(idx*8/paging.PageSize, 0))
}

// microByStripe is the microbenchmark with the per-stripe latency
// classes.
func microByStripe(short bool) App {
	return micro(short).with(func(sys *core.System, app workload.App) workload.App {
		return stripedMicro{ArrayApp: app.(*workload.ArrayApp), pl: sys.Mem.Placement()}
	})
}

// shards measures the sharded backend: an offered-load sweep for every
// memory-node count in {1, 2, 4} for the yield system (Adios) against
// the busy-wait baseline (DiLOS) — aggregate goodput should grow with
// node count once the single link saturates — followed by a blast-radius
// check at n=4 where only node 0 suffers memory stalls and per-stripe
// latency shows the fault confined to its stripe.
func shards(r *run) {
	// The load sweep crosses the single-link saturation knee (~2.6 MRPS
	// of page fetches): beyond it a one-node system drops and its tail
	// explodes while striped systems keep scaling.
	nodeCounts := []int{1, 2, 4}
	loadsK := []float64{600, 1200, 2000, 2600, 3200}
	if r.Short {
		loadsK = []float64{1200, 3200}
	}
	modes := []core.Mode{core.Adios, core.DiLOS}

	var pts []point
	var nodes []int // per point
	for _, n := range nodeCounts {
		b := r.builder(system{app: micro, local: 0.25, cfg: func(cfg *core.Config) { cfg.MemNodes = n }})
		for _, m := range modes {
			key := fmt.Sprintf("%s@n%d", m, n)
			for i, k := range loadsK {
				pts = append(pts, point{label: key, key: key, idx: i, b: b, mode: m, rps: k * 1000})
				nodes = append(nodes, n)
			}
		}
	}
	out, series := r.measure(pts)

	r.printf("\n# shards: node-count x load sweep (yield vs busy-wait)\n")
	r.printf("%-11s %6s %9s %9s %10s %10s %10s %6s %9s\n",
		"system", "nodes", "offered_K", "goodput_K", "p50_us", "p99_us", "p99.9_us", "util%", "drops")
	for i, p := range out {
		r.printf("%-11s %6d %9.4g %9.4g %10.1f %10.1f %10.1f %6.1f %9d\n",
			p.Mode, nodes[i], p.OfferedK, p.GoodputK(), p.P50us, p.P99us, p.P999us,
			p.LinkUtil*100, p.Drops)
	}
	r.emitCSV("shards", series)

	// Blast radius: 4 nodes, heavy memory stalls confined to node 0
	// (~17 % stall duty cycle), fixed mid-sweep load. The per-stripe
	// columns should show stripe n0 degraded and n1..n3 flat.
	stall := faults.Config{
		MemEvery: sim.Millis(2), MemFor: sim.Micros(400),
		Node: 0, NodeSet: true,
	}
	const faultLoadK = 600.0
	b := r.builder(system{app: microByStripe, local: 0.25, cfg: func(cfg *core.Config) {
		cfg.MemNodes = 4
		cfg.Faults = stall
	}})
	pts = nil
	for _, m := range modes {
		pts = append(pts, point{label: fmt.Sprintf("%s@n4+stall-n0", m), key: m.String() + "@n4-fault",
			b: b, mode: m, rps: faultLoadK * 1000})
	}
	_, series = r.measure(pts)
	r.printSweep(
		fmt.Sprintf("shards: per-stripe latency at %.0f KRPS, mem stalls on node 0 only", faultLoadK),
		series, []string{"n0", "n1", "n2", "n3"})
}
