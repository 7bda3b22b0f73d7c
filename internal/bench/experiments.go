package bench

import (
	"repro/internal/core"
	"repro/internal/paging"
	"repro/internal/sched"
	"repro/internal/sim"
)

// allSystems is the paper's §5.2 comparison set.
var allSystems = []core.Mode{core.Hermit, core.DiLOS, core.DiLOSP, core.Adios}

var (
	adiosOnly  = []core.Mode{core.Adios}
	dilosPOnly = []core.Mode{core.DiLOSP}
)

// Comparisons two figures of the paper share one generating run of. Each
// figure still has its own id — and so its own random streams.
var (
	// Figures 2(d) and 2(e): DiLOS throughput and RDMA link utilization
	// under 1–3 MRPS offered load.
	fig2de = []comparison{{
		title: "Figures 2(d,e): DiLOS throughput and RDMA utilization vs offered load",
		loads: []float64{1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 2600, 2800, 3000},
		modes: []core.Mode{core.DiLOS}, systems: on(micro),
	}}
	// Figures 7(a) and 7(b): P99.9 and P50 latency versus achieved
	// throughput for Hermit, DiLOS, DiLOS-P, and Adios.
	fig7ab = []comparison{{
		title: "Figures 7(a,b): P99.9/P50 vs throughput, all systems",
		loads: []float64{200, 500, 700, 900, 1100, 1300, 1500, 1800, 2100, 2400, 2700},
		modes: allSystems, systems: on(micro),
	}}
	// Figures 7(d) and 7(e): throughput and RDMA link utilization of
	// Adios vs DiLOS.
	fig7de = []comparison{{
		title: "Figures 7(d,e): throughput and RDMA utilization, Adios vs DiLOS",
		loads: []float64{1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 2600, 2800, 3000},
		modes: []core.Mode{core.DiLOS, core.Adios}, systems: on(micro),
	}}
)

// Preset adjustments the table's systems are built from.
func withDispatch(d sched.DispatchPolicy) func(*core.Config) {
	return func(c *core.Config) { c.Sched.Dispatch = d }
}

func withQuantum(us float64) func(*core.Config) {
	return func(c *core.Config) { c.Sched.Quantum = sim.Micros(us) }
}

func withFetchAlign(pages int) func(*core.Config) {
	return func(c *core.Config) { c.Paging.FetchAlign = pages }
}

func withPolicy(p paging.EvictPolicy) func(*core.Config) {
	return func(c *core.Config) { c.Paging.Policy = p }
}

// experiments is every experiment Run accepts, in DESIGN.md order: the
// paper's tables and figures, the ablations of design choices DESIGN.md
// calls out and alternatives the paper discusses and rejects (§3, §6),
// and the extensions. All, CheckPlan and the CLI's -list and up-front id
// validation read this table and nothing else.
var experiments = []experiment{
	// Table 1: context-switching mechanism comparison.
	{id: "table1", body: table1},

	// Figure 2(a): P99 e2e latency of DiLOS (busy-wait) and DiLOS-P
	// (preemption) under increasing offered load.
	{id: "fig2a", cmp: []comparison{{
		title: "Figure 2(a): DiLOS busy-wait vs preemption, P99 e2e latency",
		loads: []float64{100, 400, 700, 1000, 1150, 1300, 1450, 1600, 1750, 2000},
		modes: []core.Mode{core.DiLOS, core.DiLOSP}, systems: on(micro),
	}}},
	// Figure 2(b): the latency CDF of DiLOS at 1.3 MRPS.
	{id: "fig2b", body: fig2b},
	// Figure 2(c): DiLOS request-handling breakdown at 1.3 MRPS, in
	// Kcycles, with the busy-wait share of queueing marked.
	{id: "fig2c", body: breakdown(core.DiLOS,
		"Figure 2(c): DiLOS breakdown at 1.3 MRPS (cycles via rdtsc-equivalent)")},
	{id: "fig2d", cmp: fig2de},
	{id: "fig2e", cmp: fig2de},

	{id: "fig7a", cmp: fig7ab},
	{id: "fig7b", cmp: fig7ab},
	// Figure 7(c): Adios breakdown at 1.3 MRPS. Compared with Figure
	// 2(c), busy-waiting is gone and queueing collapses.
	{id: "fig7c", body: breakdown(core.Adios, "Figure 7(c): Adios breakdown at 1.3 MRPS")},
	{id: "fig7d", cmp: fig7de},
	{id: "fig7e", cmp: fig7de},
	// Figure 8: P99 latency of DiLOS and Adios with local DRAM from 10%
	// to 100% of the working set.
	{id: "fig8", body: fig8},
	// Figure 9: Adios with and without polling delegation.
	{id: "fig9", cmp: []comparison{{
		title: "Figure 9: effect of polling delegation (TX mechanisms)",
		loads: []float64{400, 800, 1200, 1600, 1900, 2200, 2500, 2800},
		modes: adiosOnly,
		systems: []system{
			{label: "Adios", app: micro},
			{label: "Adios-SyncTx", app: micro, cfg: func(c *core.Config) { c.Sched.Tx = sched.SyncTx }},
		},
	}}},

	// Table 2: the real-world workload summary, with this repository's
	// scaled dataset sizes alongside the paper's.
	{id: "table2", body: table2},
	// Figures 10(a–d): Memcached GET latency for 128 B and 1024 B values
	// across all four systems.
	{id: "fig10", cmp: []comparison{{
		title: "Figures 10(a,b): Memcached 128B GET",
		loads: []float64{200, 400, 600, 800, 900, 1000, 1100, 1200, 1300},
		modes: allSystems, systems: on(memcached128),
	}, {
		title: "Figures 10(c,d): Memcached 1024B GET",
		loads: []float64{200, 400, 600, 800, 900, 1000, 1100, 1200, 1300},
		modes: allSystems, systems: on(memcached1024),
	}}},
	// Figure 10(e): PF-aware vs round-robin dispatching under the
	// Memcached 128 B GET workload (Adios).
	{id: "fig10e", cmp: []comparison{{
		title: "Figure 10(e): PF-aware vs round-robin dispatch (Memcached 128B)",
		loads: []float64{400, 600, 800, 950, 1100},
		modes: adiosOnly,
		systems: []system{
			{label: "PF-Aware", app: memcached128},
			{label: "RR", app: memcached128, cfg: withDispatch(sched.RoundRobin)},
		},
	}}},
	// Figures 11(a–d): RocksDB 99 % GET / 1 % SCAN(100) per-class
	// latency across all four systems.
	{id: "fig11", cmp: []comparison{{
		title:   "Figures 11(a-d): RocksDB GET/SCAN latency",
		loads:   []float64{150, 300, 450, 600, 750, 850, 950, 1100},
		classes: []string{"GET", "SCAN"},
		modes:   allSystems, systems: on(rocksdb),
	}}},
	// Figure 11(e): PF-aware vs round-robin dispatching under the
	// RocksDB workload (Adios).
	{id: "fig11e", cmp: []comparison{{
		title:   "Figure 11(e): PF-aware vs round-robin dispatch (RocksDB)",
		loads:   []float64{300, 500, 700, 850, 950},
		classes: []string{"GET"},
		modes:   adiosOnly,
		systems: []system{
			{label: "PF-Aware", app: rocksdb},
			{label: "RR", app: rocksdb, cfg: withDispatch(sched.RoundRobin)},
		},
	}}},
	// Figure 12: Silo TPC-C latency across all systems.
	{id: "fig12", cmp: []comparison{{
		title: "Figure 12: Silo TPC-C latency",
		loads: []float64{100, 175, 250, 325, 400, 475, 550},
		modes: allSystems, systems: on(tpccApp),
	}}},
	// Figure 13: Faiss BIGANN-like vector search latency across all
	// systems. Loads are in KRPS like every sweep, so the paper's
	// hundreds-of-queries-per-second regime appears as fractional
	// values. The short-mode dataset is ~8x smaller, so queries are ~8x
	// lighter; its loads are scaled to keep the sweep spanning the
	// busy-wait system's saturation point.
	{id: "fig13", cmp: []comparison{{
		title: "Figure 13: Faiss vector-search latency (offered in KRPS; 0.1K = 100 QPS)",
		loads: []float64{0.10, 0.20, 0.30, 0.40},
		short: []float64{1.5, 3.0},
		modes: allSystems, systems: on(faiss),
	}}},

	// abl-prefetch compares readahead policies on the scan-heavy RocksDB
	// workload: none, fixed sequential, and Leap-style trend detection
	// [44]. Prefetching mostly hides SCAN fetch latency while leaving
	// random GETs untouched; Leap matches sequential on scans without
	// wasting bandwidth on the random GETs.
	{id: "abl-prefetch", cmp: []comparison{{
		title:   "Ablation: prefetch policy (RocksDB, Adios)",
		loads:   []float64{300, 500, 700},
		classes: []string{"GET", "SCAN"},
		modes:   adiosOnly,
		systems: []system{
			{label: "none", app: rocksdb},
			{label: "sequential=8", app: rocksdb, cfg: func(c *core.Config) { c.Paging.Prefetch = 8 }},
			{label: "leap", app: rocksdb, cfg: func(c *core.Config) { c.Paging.PrefetchPolicy = paging.Leap }},
		},
	}}},
	// abl-reclaim compares the paper's pinned proactive reclaimer (§3.3)
	// against a conventional wake-on-pressure reclaimer.
	{id: "abl-reclaim", cmp: []comparison{{
		title: "Ablation: proactive vs on-demand reclamation (Adios)",
		loads: []float64{400, 800, 1200},
		modes: adiosOnly,
		systems: []system{
			{label: "proactive", app: micro, cfg: func(c *core.Config) { c.Paging.Proactive = true }},
			{label: "on-demand", app: micro, cfg: func(c *core.Config) { c.Paging.Proactive = false }},
		},
	}}},
	// abl-compute verifies the §6 limitation: on a compute-bound, fully
	// local workload, yield-based fault handling gains nothing — both
	// variants share every other policy (dispatch, TX) so only the wait
	// policy differs, isolating the claim from the systems' other
	// differences.
	{id: "abl-compute", cmp: []comparison{{
		title: "Ablation: compute-bound workload (no faults) — §6 limitation",
		loads: []float64{500, 1000, 1500, 2000, 2500},
		modes: adiosOnly,
		systems: []system{
			{label: "yield", app: compute, local: 1},
			{label: "busy-wait", app: compute, local: 1, cfg: func(c *core.Config) { c.Sched.Wait = sched.BusyWait }},
		},
	}}},
	// abl-workers sweeps the worker count on a fully local,
	// compute-light workload (so neither the RDMA link nor the workers
	// bind): throughput stops scaling once the single dispatcher core
	// saturates — the ~ten worker ceiling §6 concedes.
	{id: "abl-workers", body: ablWorkers},
	// abl-quantum sweeps DiLOS-P's preemption quantum on the RocksDB
	// GET/SCAN mix (where preemption matters).
	{id: "abl-quantum", cmp: []comparison{{
		title:   "Ablation: DiLOS-P preemption quantum (RocksDB)",
		loads:   []float64{350},
		classes: []string{"GET", "SCAN"},
		modes:   dilosPOnly,
		systems: []system{
			{label: "quantum=2us", app: rocksdb, cfg: withQuantum(2), fullOnly: true},
			{label: "quantum=5us", app: rocksdb, cfg: withQuantum(5)},
			{label: "quantum=10us", app: rocksdb, cfg: withQuantum(10), fullOnly: true},
			{label: "quantum=20us", app: rocksdb, cfg: withQuantum(20)},
		},
	}}},
	// abl-pool sweeps the unithread pool size; an undersized pool sheds
	// requests at bursty arrivals.
	{id: "abl-pool", body: ablPool},
	// abl-twosided compares one-sided RDMA fetches against
	// SEND/RECV-style serving with memory-node CPU involvement — the
	// §3.1 design choice.
	{id: "abl-twosided", cmp: []comparison{{
		title: "Ablation: one-sided vs two-sided remote memory access (Adios)",
		loads: []float64{400, 800, 1200, 1600, 2000},
		modes: adiosOnly,
		systems: []system{
			{label: "one-sided", app: micro},
			{label: "two-sided", app: microTwoSided},
		},
	}}},
	// abl-steal compares the paper's centralized single queue against
	// ZygOS-style per-worker queues with work stealing (§3.4's rejected
	// alternative) on the high-dispersion RocksDB mix.
	{id: "abl-steal", cmp: []comparison{{
		title:   "Ablation: single queue vs work stealing (RocksDB, Adios)",
		loads:   []float64{200, 400, 600, 800},
		classes: []string{"GET", "SCAN"},
		modes:   adiosOnly,
		systems: []system{
			{label: "single-queue", app: rocksdb},
			{label: "work-stealing", app: rocksdb, cfg: withDispatch(sched.WorkStealing)},
		},
	}}},
	// abl-ipi compares probe-based (manual/Concord) preemption against
	// Shinjuku-style IPIs for DiLOS-P on RocksDB. The paper tried both
	// and kept the probes ("superior performance than the former with
	// IPI").
	{id: "abl-ipi", cmp: []comparison{{
		title:   "Ablation: probe vs IPI preemption (DiLOS-P, RocksDB)",
		loads:   []float64{250, 400, 550},
		classes: []string{"GET", "SCAN"},
		modes:   dilosPOnly,
		systems: []system{
			{label: "probes", app: rocksdb},
			{label: "ipi", app: rocksdb, cfg: func(c *core.Config) { c.Sched.PreemptIPI = true }},
		},
	}}},
	// abl-evict compares CLOCK against exact LRU on the skewed-access
	// Memcached workload, where recency actually matters.
	{id: "abl-evict", cmp: []comparison{{
		title: "Ablation: CLOCK vs exact LRU eviction (Memcached, zipfian keys, Adios)",
		loads: []float64{400, 700, 1000},
		modes: adiosOnly,
		systems: []system{
			{label: "CLOCK", app: memcachedZipf, cfg: withPolicy(paging.CLOCK)},
			{label: "LRU", app: memcachedZipf, cfg: withPolicy(paging.LRU)},
		},
	}}},
	// abl-hugepage measures fetch-granularity amplification: a 2
	// MiB-grained memory node (FetchAlign 512) against 4 KiB demand
	// paging on the random-access microbenchmark — the §5.2 reason Silo
	// was extended to support regular pages ("huge pages induce 512
	// times larger I/O amplification").
	{id: "abl-hugepage", cmp: []comparison{{
		title: "Ablation: fetch granularity / huge-page I/O amplification (Adios)",
		loads: []float64{100, 200, 400},
		modes: adiosOnly,
		systems: []system{
			{label: "align=1", app: micro, cfg: withFetchAlign(1)},
			{label: "align=64", app: micro, cfg: withFetchAlign(64)},
			{label: "align=512", app: micro, cfg: withFetchAlign(512)},
		},
	}}},
	// abl-canvas measures application-guided (two-tier, Canvas-style)
	// prefetching on RocksDB scans.
	{id: "abl-canvas", cmp: []comparison{{
		title:   "Ablation: Canvas-style application-guided prefetch (RocksDB, Adios)",
		loads:   []float64{250, 400, 550},
		classes: []string{"GET", "SCAN"},
		modes:   adiosOnly,
		systems: []system{
			{label: "demand-only", app: rocksdb},
			{label: "app-guided", app: rocksdbGuided},
		},
	}}},
	// abl-multidisp scales workers with one vs two dispatcher cores,
	// probing the single-queue scalability ceiling §6 concedes.
	{id: "abl-multidisp", body: ablMultiDispatch},
	// abl-transport contrasts the paper's UDP-style open-loop service
	// with a reliable, windowed transport (§6's connection-oriented
	// future work) under overload: UDP sheds load (drops), the reliable
	// layer retries and back-pressures, trading drop count for latency.
	{id: "abl-transport", body: ablTransport},
	// infiniswap runs the legacy interrupt-driven yield design the paper
	// excludes from its plots for being off-scale (§5 setup: P99.9 582 µs
	// to 73 ms, 261 KRPS), as an extension.
	{id: "infiniswap", cmp: []comparison{{
		title: "Extension: legacy interrupt-driven yield (Infiniswap-class) vs Adios",
		loads: []float64{100, 200, 300, 400},
		modes: []core.Mode{core.Infiniswap, core.Adios}, systems: on(micro),
	}}},

	// The extensions past the paper's single reliable memory node; each
	// documents itself where its body is.
	{id: "resilience", body: resilience},
	{id: "shards", nodes: 1, body: shards},
	{id: "failover", body: failover},
	{id: "rebalance", nodes: rebalanceNodes, body: rebalance},
}
