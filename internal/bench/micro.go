package bench

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/unithread"
)

// switchRounds is the number of round trips (two switches each) table1
// times per mechanism: a few milliseconds of host time.
const switchRounds = 1 << 18

// table1 measures sizes from the real structures and cycles by running
// the real save/restore loops on this host, alongside the calibrated
// model constants used in the simulation.
func table1(r *run) {
	lightNs := nsPerSwitch(func() {
		var a, c unithread.LightContext
		for range switchRounds {
			unithread.SwitchLight(&a, &c)
			unithread.SwitchLight(&c, &a)
		}
	})
	fullNs := nsPerSwitch(func() {
		var a, c unithread.FullContext
		for range switchRounds {
			unithread.SwitchFull(&a, &c)
			unithread.SwitchFull(&c, &a)
		}
	})
	costs := sched.DefaultCosts()

	r.printf("\n# Table 1: context-switching mechanisms\n")
	r.printf("%-24s %10s %14s %13s\n", "mechanism", "ctx_bytes", "host_ns/switch", "model_cycles")
	r.printf("%-24s %10d %14.1f %13d\n", "Adios unithread",
		unithread.ContextSize, lightNs, int64(costs.UnithreadSwitch))
	r.printf("%-24s %10d %14.1f %13d\n", "Shinjuku ucontext_t",
		unithread.ShinjukuContextSize, fullNs, 191)
	r.printf("size ratio %.1fx, host cycle ratio %.1fx (paper: 12.1x, 4.7x)\n",
		float64(unithread.ShinjukuContextSize)/float64(unithread.ContextSize), fullNs/lightNs)
}

// nsPerSwitch is the host time of one switch of roundTrips, which
// makes switchRounds round trips.
func nsPerSwitch(roundTrips func()) float64 {
	t0 := time.Now()
	roundTrips()
	return float64(time.Since(t0).Nanoseconds()) / (2 * switchRounds)
}

// once is the lone point of a single-run figure: the microbenchmark at
// 20 % local memory under the base seed, with obs watching the run.
func (r *run) once(mode core.Mode, rps float64, obs func(*core.System, sim.Time) func(core.RunResult)) {
	r.measure([]point{{label: mode.String(), b: r.builder(system{app: micro}),
		mode: mode, rps: rps, observe: obs}})
}

func fig2b(r *run) {
	var cdf []stats.CDFPoint
	r.once(core.DiLOS, 1_300_000, func(*core.System, sim.Time) func(core.RunResult) {
		return func(res core.RunResult) { cdf = res.Gen.E2E.CDF() }
	})
	r.printf("\n# Figure 2(b): DiLOS latency CDF at 1.3 MRPS\n")
	r.printf("%12s %10s\n", "latency_us", "cdf")
	step := len(cdf)/30 + 1
	for i := 0; i < len(cdf); i += step {
		r.printf("%12.1f %10.4f\n", sim.Time(cdf[i].Value).Micros(), cdf[i].Fraction)
	}
	if len(cdf) > 0 {
		last := cdf[len(cdf)-1]
		r.printf("%12.1f %10.4f\n", sim.Time(last.Value).Micros(), last.Fraction)
	}
}

// BreakdownRow is one percentile row of Figure 2(c)/7(c).
type BreakdownRow struct {
	Pct           float64
	TotalKc       float64 // node residence, Kcycles
	QueueKc       float64
	QueueBusyKc   float64 // portion of queueing attributable to busy-waiting peers
	ProcessKc     float64
	RDMAKc        float64
	OwnBusyWaitKc float64
}

// breakdown is the body of Figures 2(c) and 7(c): the request-handling
// breakdown of mode at 1.3 MRPS, from a tap on every completed request.
func breakdown(mode core.Mode, title string) func(*run) {
	return func(r *run) {
		r.once(mode, 1_300_000, func(sys *core.System, warm sim.Time) func(core.RunResult) {
			var recs []breakdownRec
			sys.Sched.OnComplete = func(req *sched.Request) {
				if req.Finished >= warm {
					recs = append(recs, breakdownRec{
						total: int64(req.NodeLatency()),
						queue: int64(req.QueueWait),
						cpu:   int64(req.CPU),
						rdma:  int64(req.RDMAWait),
						busy:  int64(req.BusyWait),
					})
				}
			}
			return func(core.RunResult) { r.res.Breakdown = breakdownRows(recs, sys.Sched) }
		})
		r.printf("\n# %s\n", title)
		r.printf("%6s %9s %9s %12s %10s %9s %12s\n",
			"pct", "total_Kc", "queue_Kc", "queue*busy%", "proc_Kc", "rdma_Kc", "own_busy_Kc")
		for _, row := range r.res.Breakdown {
			r.printf("%6.1f %9.1f %9.1f %12.1f %10.1f %9.1f %12.1f\n",
				row.Pct, row.TotalKc, row.QueueKc, row.QueueBusyKc, row.ProcessKc, row.RDMAKc, row.OwnBusyWaitKc)
		}
	}
}

// breakdownRec is one completed request's cycle split.
type breakdownRec struct{ total, queue, cpu, rdma, busy int64 }

// breakdownRows averages the records around each reported percentile of
// node residence.
func breakdownRows(recs []breakdownRec, s *sched.Scheduler) []BreakdownRow {
	if len(recs) == 0 {
		return nil
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].total < recs[j].total })
	// Fraction of core-busy time spent busy-waiting: the "slashed"
	// attribution of queueing delay in Figure 2(c).
	busyShare := 0.0
	if tot := s.CPUCycles() + s.BusyWaitCycles(); tot > 0 {
		busyShare = float64(s.BusyWaitCycles()) / float64(tot)
	}
	var rows []BreakdownRow
	for _, pct := range []float64{0.10, 0.50, 0.99, 0.999} {
		lo := max(int(pct*float64(len(recs)))-len(recs)/400, 0)
		hi := int(pct*float64(len(recs))) + len(recs)/400
		hi = min(max(hi, lo+1), len(recs))
		var avg breakdownRec
		for _, rec := range recs[lo:hi] {
			avg.total += rec.total
			avg.queue += rec.queue
			avg.cpu += rec.cpu
			avg.rdma += rec.rdma
			avg.busy += rec.busy
		}
		n := float64(hi - lo)
		kc := func(v int64) float64 { return float64(v) / n / 1000 }
		rows = append(rows, BreakdownRow{
			Pct:           pct * 100,
			TotalKc:       kc(avg.total),
			QueueKc:       kc(avg.queue),
			QueueBusyKc:   kc(avg.queue) * busyShare,
			ProcessKc:     kc(avg.cpu),
			RDMAKc:        kc(avg.rdma),
			OwnBusyWaitKc: kc(avg.busy),
		})
	}
	return rows
}

func fig8(r *run) {
	locals := []float64{0.10, 0.20, 0.40, 0.60, 0.80, 1.00}
	loads := []float64{400, 800, 1200, 1600, 2000, 2400, 2800}
	if r.Short {
		locals = []float64{0.10, 0.20, 1.00}
		loads = []float64{800, 1600, 2400}
	}
	r.printf("\n# Figure 8: P99 vs throughput across local-DRAM sizes\n")
	r.printf("%-11s %7s %9s %9s %10s %6s\n", "system", "local%", "offered_K", "tput_K", "p99_us", "util%")
	var pts []point
	var fracs []float64
	for _, frac := range locals {
		b := r.builder(system{app: micro, local: frac})
		for _, mode := range []core.Mode{core.DiLOS, core.Adios} {
			for i, k := range loads {
				pts = append(pts, point{label: mode.String(), key: mode.String(), idx: i,
					b: b, mode: mode, rps: k * 1000})
				fracs = append(fracs, frac)
			}
		}
	}
	out, _ := r.measure(pts)
	for i, pt := range out {
		r.printf("%-11s %7.0f %9.0f %9.0f %10.1f %6.1f\n",
			pt.Mode, fracs[i]*100, pt.OfferedK, pt.TputK, pt.P99us, pt.LinkUtil*100)
	}
}
