// Package repro's root benchmarks regenerate every table and figure of
// the paper at reduced (CI-sized) resolution: one Benchmark per artifact
// that has a headline quantity, named after DESIGN.md's experiment
// index, and BenchmarkExperiment/<id> for the rest. Each runs its
// experiment by id through bench.Run, exactly as `adios-bench -exp <id>
// -short -seed 1` does. Full-resolution sweeps live in cmd/adios-bench.
//
// Custom metrics carry the figures' headline quantities (peak
// throughputs in KRPS, tail latencies in µs) so `go test -bench` output
// can be compared against both the paper and EXPERIMENTS.md.
package repro

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/unithread"
)

func opts() bench.Options {
	return bench.Options{Short: true, Out: io.Discard, Seed: 1}
}

// run executes one experiment by id — the one entry point, so a
// benchmark draws the same seeds as `adios-bench -exp <id> -short
// -seed 1` — and returns what it measured.
func run(b *testing.B, id string) bench.Result {
	b.Helper()
	res, err := bench.Run(id, opts())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// sweep is run for an experiment with one table.
func sweep(b *testing.B, id string) bench.Series { return run(b, id).Sweeps[0] }

func peak(points []bench.Point) bench.Point {
	var best bench.Point
	for _, p := range points {
		if p.TputK > best.TputK {
			best = p
		}
	}
	return best
}

// BenchmarkTable1UnithreadSwitch and BenchmarkTable1UcontextSwitch are
// the two rows of Table 1, run on real hardware.
func BenchmarkTable1UnithreadSwitch(b *testing.B) {
	var x, y unithread.LightContext
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unithread.SwitchLight(&x, &y)
		unithread.SwitchLight(&y, &x)
	}
	b.ReportMetric(80, "ctx_bytes")
}

func BenchmarkTable1UcontextSwitch(b *testing.B) {
	var x, y unithread.FullContext
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unithread.SwitchFull(&x, &y)
		unithread.SwitchFull(&y, &x)
	}
	b.ReportMetric(968, "ctx_bytes")
}

func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig2a")
		b.ReportMetric(peak(series["DiLOS"]).TputK, "dilos_peak_KRPS")
		b.ReportMetric(peak(series["DiLOS-P"]).TputK, "dilosp_peak_KRPS")
	}
}

func BenchmarkFig2c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := run(b, "fig2c").Breakdown
		b.ReportMetric(rows[1].TotalKc, "p50_total_Kcycles")
		b.ReportMetric(rows[3].QueueKc, "p999_queue_Kcycles")
	}
}

func BenchmarkFig2d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pk := peak(sweep(b, "fig2d")["DiLOS"])
		b.ReportMetric(pk.TputK, "dilos_peak_KRPS")
		b.ReportMetric(pk.LinkUtil*100, "dilos_util_pct")
	}
}

func BenchmarkFig7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig7a")
		b.ReportMetric(peak(series["Adios"]).TputK, "adios_peak_KRPS")
		b.ReportMetric(peak(series["DiLOS"]).TputK, "dilos_peak_KRPS")
		b.ReportMetric(peak(series["Hermit"]).TputK, "hermit_peak_KRPS")
	}
}

func BenchmarkFig7c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := run(b, "fig7c").Breakdown
		b.ReportMetric(rows[3].QueueKc, "p999_queue_Kcycles")
		b.ReportMetric(rows[3].OwnBusyWaitKc, "p999_busywait_Kcycles")
	}
}

func BenchmarkFig7d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig7d")
		a, d := peak(series["Adios"]), peak(series["DiLOS"])
		b.ReportMetric(a.TputK/d.TputK, "peak_ratio")
		b.ReportMetric(a.LinkUtil*100, "adios_util_pct")
		b.ReportMetric(d.LinkUtil*100, "dilos_util_pct")
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig9")
		b.ReportMetric(peak(series["Adios"]).TputK/peak(series["Adios-SyncTx"]).TputK,
			"delegation_peak_ratio")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := run(b, "fig10") // the 128 B table, then the 1024 B one
		b.ReportMetric(peak(res.Sweeps[0]["Adios"]).TputK, "adios128_peak_KRPS")
		b.ReportMetric(peak(res.Sweeps[0]["DiLOS"]).TputK, "dilos128_peak_KRPS")
		b.ReportMetric(peak(res.Sweeps[1]["Adios"]).TputK, "adios1024_peak_KRPS")
	}
}

func BenchmarkFig10e(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig10e")
		pf, rr := series["PF-Aware"], series["RR"]
		b.ReportMetric(pf[len(pf)-1].P999us, "pfaware_p999_us")
		b.ReportMetric(rr[len(rr)-1].P999us, "rr_p999_us")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig11")
		b.ReportMetric(peak(series["Adios"]).TputK, "adios_peak_KRPS")
		b.ReportMetric(peak(series["DiLOS"]).TputK, "dilos_peak_KRPS")
		b.ReportMetric(peak(series["DiLOS-P"]).TputK, "dilosp_peak_KRPS")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig12")
		b.ReportMetric(peak(series["Adios"]).TputK, "adios_peak_KRPS")
		b.ReportMetric(peak(series["DiLOS"]).TputK, "dilos_peak_KRPS")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "fig13")
		b.ReportMetric(peak(series["Adios"]).TputK*1000, "adios_peak_RPS")
		b.ReportMetric(peak(series["DiLOS"]).TputK*1000, "dilos_peak_RPS")
	}
}

// Ablation and extension benches with a headline quantity (DESIGN.md §5).

func BenchmarkAblCompute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "abl-compute")
		b.ReportMetric(peak(series["yield"]).TputK/peak(series["busy-wait"]).TputK, "yield_vs_busywait")
	}
}

func BenchmarkInfiniswap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(peak(sweep(b, "infiniswap")["Infiniswap"]).TputK, "infiniswap_peak_KRPS")
	}
}

func BenchmarkAblTwoSided(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := sweep(b, "abl-twosided")
		b.ReportMetric(peak(series["one-sided"]).TputK/peak(series["two-sided"]).TputK,
			"onesided_advantage")
	}
}

// BenchmarkExperiment times every other artifact — the ones whose result
// is the printed table, with no single headline number — one
// sub-benchmark per id.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range []string{"fig2b", "fig8", "table2", "fig11e",
		"abl-prefetch", "abl-reclaim", "abl-workers", "abl-quantum", "abl-pool", "abl-steal",
		"abl-ipi", "abl-evict", "abl-hugepage", "abl-canvas", "abl-multidisp"} {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, id)
			}
		})
	}
}
