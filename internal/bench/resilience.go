package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// chaosPlan is the base fault plan the resilience experiment sweeps
// over when the options carry none: background RNR delays, link
// degradation windows, and memory-node stalls at rates a healthy
// system should absorb, with the WR-error rate as the swept variable.
func chaosPlan() faults.Config {
	return faults.Config{
		RNRRate: 0.001, RNRDelay: sim.Micros(5),
		LinkEvery: sim.Millis(20), LinkFor: sim.Micros(200), LinkFactor: 4,
		MemEvery: sim.Millis(25), MemFor: sim.Micros(100),
	}
}

// resilience sweeps the per-WR completion-error rate at a fixed offered
// load and reports latency and goodput for the yield system (Adios)
// against the busy-wait baseline (DiLOS): how gracefully each policy
// degrades when fetches fail and must be retried, and at what fault
// rate bounded retries start aborting requests. The base plan is
// Options.Faults when it injects anything (so `-faults` shapes the
// chaos), otherwise chaosPlan; the wr= component is overridden per
// sweep point. Goodput discounts throughput by the aborted-request
// fraction.
func resilience(r *run) {
	base := r.Faults
	if !base.Enabled() {
		base = chaosPlan()
	}
	rates := []float64{0, 0.002, 0.005, 0.01, 0.02, 0.05}
	if r.Short {
		rates = []float64{0, 0.01}
	}
	const loadK = 900.0

	var pts []point
	for _, m := range []core.Mode{core.Adios, core.DiLOS} {
		for i, rate := range rates {
			plan := base
			plan.WRErrRate = rate
			pts = append(pts, point{label: fmt.Sprintf("%s@wr%.3f", m, rate), key: m.String(), idx: i,
				mode: m, rps: loadK * 1000,
				b: r.builder(system{app: micro, local: 0.25, cfg: func(cfg *core.Config) { cfg.Faults = plan }})})
		}
	}
	out, series := r.measure(pts)

	r.printf("\n# resilience: fault-rate sweep at %.0f KRPS (yield vs busy-wait)\n", loadK)
	r.printf("%-11s %8s %9s %9s %10s %10s %10s %9s %9s\n",
		"system", "wr_rate", "offered_K", "goodput_K", "p50_us", "p99_us", "p99.9_us", "aborts", "retries")
	for i, p := range out {
		r.printf("%-11s %8.3f %9.4g %9.4g %10.1f %10.1f %10.1f %9d %9d\n",
			p.Mode, rates[i%len(rates)], p.OfferedK, p.GoodputK(), p.P50us, p.P99us, p.P999us, p.Aborts,
			int64(p.Stats["paging.fetch_retries"]+p.Stats["paging.writeback_retries"]))
	}
	r.emitCSV("resilience", series)
}
