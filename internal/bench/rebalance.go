package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rebalanceNodes is the cluster size; the placement assigns each node
// one contiguous quarter of the array (block = pages/nodes), so a
// Zipfian key skew — hottest keys are the lowest indices — concentrates
// fault traffic on the low blocks instead of being smoothed away by
// page striping. That is the imbalance online migration exists to fix.
const rebalanceNodes = 4

// rebalanceLocal is the local-DRAM fraction: small enough that the hot
// set does not fit, so the skewed tail faults continuously against the
// overloaded node's link.
const rebalanceLocal = 0.01

// rebalanceCyB is the link serialization cost (cycles per wire byte)
// the experiment models: a 10 GbE-class fabric instead of the default
// 100 GbE, so the overloaded node's link actually saturates at the
// fault rates a single compute node generates — the regime where
// placement matters. (On the default fabric the same imbalance is
// visible in the read counters but hides inside idle link headroom.)
const rebalanceCyB = 2.0

// rebalanceWriteFrac makes a quarter of the requests stores: dirty
// evictions write back over the owner's link (roughly doubling the
// per-fault wire bytes on the hot node) and write-backs racing an
// in-flight copy exercise the dual-apply path under measurement, not
// just under the chaos tests.
const rebalanceWriteFrac = 0.25

// rebalanceCSVHeader is the experiment's own CSV schema (it reports
// imbalance and migration counts the global schema has no columns for);
// see EXPERIMENTS.md.
const rebalanceCSVHeader = "experiment,system,skew,migrate,offered_KRPS,goodput_KRPS,p50_us,p99_us,p999_us,imbalance,migrations,drops"

// rebalance measures online page migration against key skew: the
// microbenchmark block-placed over 4 memory nodes (each owns a
// contiguous quarter, so skew loads the low nodes), sweeping the
// Zipfian exponent with migration off and on at a fixed load near the
// single-link fault-rate knee. With skew and migration off, the hot
// node's link saturates and queues while the others idle — goodput
// drops and the tail explodes. Migration moves the hot uncached pages
// to the idle nodes: per-node read imbalance falls toward 1, and
// goodput and p99 recover.
func rebalance(r *run) {
	const loadK = 2600.0
	// The sweep spans the regimes that matter (math/rand's Zipf
	// generator needs exponents strictly above 1, and milder skews fault
	// so much of the huge near-uniform tail that all four links melt
	// regardless of placement): at 1.2 the hot link is past saturation
	// and migration rescues a collapsing tail; at 1.3 it is congested
	// and migration trims p99 severalfold; at 1.4 the fault rate is
	// below the planner's trigger floor, so migration stays idle and the
	// off/on runs are identical — the do-no-harm end of the sweep.
	skews := []float64{1.2, 1.3, 1.4}
	if r.Short {
		skews = []float64{1.2}
	}
	// Shorter epochs and a lower trigger floor than the defaults (the
	// experiment's windows are tens of milliseconds, so migration must
	// react within a few hundred microseconds of skew showing up), and
	// copies paced well below the slow link so the executor does not
	// congest the very link it is draining.
	mig := migrate.Config{Enabled: true, Epoch: sim.Micros(200),
		HotThreshold: 4, Bandwidth: 0.25, Imbalance: 1.2, MaxMoves: 256, MinFaults: 16}

	var pts []point
	type row struct {
		skew  float64
		onoff string
	}
	var rows []row
	for _, s := range skews {
		app := func(short bool) App {
			return micro(short).with(func(_ *core.System, app workload.App) workload.App {
				a := app.(*workload.ArrayApp)
				a.WriteFrac = rebalanceWriteFrac
				a.SetSkew(s)
				return a
			})
		}
		for _, on := range []bool{false, true} {
			m, onoff := migrate.Config{}, "off"
			if on {
				m, onoff = mig, "on"
			}
			// The off/on pair of each skew shares one seed, so the request
			// streams are identical and any difference is the mechanism's.
			pts = append(pts, point{label: fmt.Sprintf("s%.1f+%s", s, m.String()), key: fmt.Sprintf("s%.1f", s),
				mode: core.Adios, rps: loadK * 1000,
				b: r.builder(system{app: app, local: rebalanceLocal, cfg: func(cfg *core.Config) {
					cfg.MemNodes = rebalanceNodes
					cfg.Block = microArrayBytes / 4096 / rebalanceNodes
					cfg.Migrate = m
					cfg.RDMA.CyclesPerByte = rebalanceCyB
				}})})
			rows = append(rows, row{s, onoff})
		}
	}
	out, _ := r.measure(pts)

	r.printf("\n# rebalance: key skew x migration (block placement, %d nodes, %.0f KRPS)\n",
		rebalanceNodes, loadK)
	r.printf("%-5s %-8s %9s %9s %10s %10s %10s %10s %7s %9s\n",
		"skew", "migrate", "offered_K", "goodput_K", "p50_us", "p99_us", "p99.9_us",
		"imbalance", "moved", "drops")
	if r.CSV != nil {
		fmt.Fprintln(r.CSV, rebalanceCSVHeader)
	}
	for i, p := range out {
		skew, onoff, imb := rows[i].skew, rows[i].onoff, imbalance(p.Stats)
		r.printf("%-5.1f %-8s %9.4g %9.4g %10.1f %10.1f %10.1f %10.2f %7d %9d\n",
			skew, onoff, p.OfferedK, p.GoodputK(), p.P50us, p.P99us, p.P999us,
			imb, int64(p.Stats["migrate.pages_moved"]), p.Drops)
		if r.CSV != nil {
			fmt.Fprintf(r.CSV, "rebalance,%s,%.1f,%s,%.0f,%.0f,%.2f,%.2f,%.2f,%.4f,%d,%d\n",
				p.Mode, skew, onoff, p.OfferedK, p.GoodputK(),
				p.P50us, p.P99us, p.P999us, imb, int64(p.Stats["migrate.pages_moved"]), p.Drops)
		}
	}
}

// imbalance is max/mean of the per-node fetch-read counts in a point's
// Stats — 1.0 is a perfectly balanced cluster, the node count is
// everything on one.
func imbalance(snap map[string]float64) float64 {
	var most, total float64
	for k := range rebalanceNodes {
		n := snap[fmt.Sprintf("memnode%d.reads", k)]
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 1
	}
	return most * rebalanceNodes / total
}
