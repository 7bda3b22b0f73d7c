package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// failoverArrayBytes is the failover experiment's working set. Smaller
// than the microbenchmark's so a dead node's stripe (its primary and
// replica copies) re-replicates well inside the measurement window at
// the default repair bandwidth cap.
const failoverArrayBytes int64 = 8 << 20

// failoverNodes is the memory-node count of every failover point.
const failoverNodes = 4

// failover measures surviving a memory-node crash: 4 memory nodes at a
// fixed mid-sweep load, sweeping the replication factor against the
// crash time (as a fraction of the measurement window), plus a no-crash
// reference per factor. Node 1 dies and stays dead; the failure
// detector notices, fetches of its stripe fail over to replicas, and
// the background repairer restores the replication factor. Unreplicated
// runs (r=1) show the blast radius instead: every access to the dead
// stripe aborts, so goodput drops by roughly the stripe's share of the
// post-crash window while replicated runs lose nothing. Every point runs
// under Options.Faults with this crash added (Options.Validate refuses a
// plan that brings a crash of its own).
func failover(r *run) {
	const (
		crashNode = 1
		loadK     = 600.0
	)
	repFactors := []int{1, 2, 3}
	fracs := []float64{0.25, 0.5, 0.75}
	if r.Short {
		repFactors = []int{1, 2}
		fracs = []float64{0.5}
	}
	warm, meas := r.windows(loadK * 1000)

	var pts []point
	type row struct {
		reps    int
		crashAt sim.Time // < 0: no crash
	}
	var rows []row
	// plan adds a point; crashAt < 0 is the no-crash reference.
	plan := func(reps int, key string, idx int, crashAt sim.Time) {
		pts = append(pts, point{label: key, key: key, idx: idx, mode: core.Adios, rps: loadK * 1000,
			b: r.builder(system{app: func(bool) App { return arrayApp(failoverArrayBytes) }, local: 0.25,
				cfg: func(cfg *core.Config) {
					cfg.MemNodes = failoverNodes
					cfg.Replicas = reps
					if crashAt >= 0 {
						cfg.Faults.CrashAt, cfg.Faults.CrashNode, cfg.Faults.CrashSet = crashAt, crashNode, true
					}
				}})})
		rows = append(rows, row{reps, crashAt})
	}
	for _, reps := range repFactors {
		plan(reps, fmt.Sprintf("r%d+nocrash", reps), 0, -1)
		for i, frac := range fracs {
			plan(reps, fmt.Sprintf("r%d+crash%.0f%%", reps, frac*100), i, warm+sim.Time(frac*float64(meas)))
		}
	}
	out, series := r.measure(pts)

	r.printf("\n# failover: replication factor x crash time (node %d dies, %d nodes, %.0f KRPS)\n",
		crashNode, failoverNodes, loadK)
	r.printf("%-4s %9s %9s %9s %10s %10s %8s %9s %9s\n",
		"reps", "crash_ms", "offered_K", "goodput_K", "p99_us", "p99.9_us",
		"aborts", "failovers", "repaired")
	for i, p := range out {
		crash := "-"
		if rows[i].crashAt >= 0 {
			crash = fmt.Sprintf("%.2f", rows[i].crashAt.Millis())
		}
		r.printf("%-4d %9s %9.4g %9.4g %10.1f %10.1f %8d %9d %9d\n",
			rows[i].reps, crash, p.OfferedK, p.GoodputK(), p.P99us, p.P999us,
			p.Aborts, int64(p.Stats["paging.failover_reads"]), int64(p.Stats["repair.repaired"]))
	}
	r.emitCSV("failover", series)
}
