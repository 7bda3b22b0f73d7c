package main

// metricDef names one reported number. The same lists live in
// BENCHMARK.json; benchmark_test.go holds the two to one set.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"

	// bound is the share of the baseline median by which an end-to-end
	// metric may get worse before -compare calls it a regression
	// (per-layer metrics carry none). floor is the absolute worsening
	// always allowed, for metrics whose baseline can be tiny.
	bound float64
	floor float64

	// sim marks a simulated-clock number: a pure function of the seed,
	// so two reports of one seed must agree on it exactly.
	sim bool
}

// endToEnd is what a user of the simulator sees: the paper's claim on
// the simulated clock, our cost on the host clock. Each bound is at
// least three times the spread measured over ten seeds, or the 0.25 a
// bound may be at most (reports/spread.txt): on the host-time metrics
// the spread is the noise of a shared host, on the simulated ones it is
// seed to seed, there because a driver varies the seed between runs. At
// one seed -compare demands that the simulated metrics be equal.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
	{name: "host_ns_per_req", unit: "ns", better: "lower", bound: 0.25},
	{name: "host_allocs_per_req", unit: "allocs", better: "lower", bound: 0.03, floor: 0.01},
	{name: "host_peak_rss_mb", unit: "MiB", better: "lower", bound: 0.05},
	{name: "sim_goodput_krps", unit: "KRPS", better: "higher", bound: 0.03, sim: true},
	{name: "sim_p50_us", unit: "us", better: "lower", bound: 0.05, sim: true},
	{name: "sim_p999_us", unit: "us", better: "lower", bound: 0.25, sim: true},
}

// perLayer is named layer.metric, the layer being the internal/ package
// (or runtime, host, trace, other) the number attributes work to.
var perLayer = []metricDef{
	// Simulated clock: exported counters read after a run (exact).
	{name: "loadgen.sent", unit: "count", better: "higher", sim: true},
	{name: "loadgen.delivered", unit: "count", better: "higher", sim: true},
	{name: "ethernet.rx_drops", unit: "count", better: "lower", sim: true},
	{name: "ethernet.tx_util", unit: "ratio", better: "lower", sim: true},
	{name: "sched.completed", unit: "count", better: "higher", sim: true},
	{name: "sched.drops_queue", unit: "count", better: "lower", sim: true},
	{name: "sched.drops_pool", unit: "count", better: "lower", sim: true},
	{name: "sched.fault_aborts", unit: "count", better: "lower", sim: true},
	{name: "sched.steals", unit: "count", better: "lower", sim: true},
	{name: "sched.flat_tier", unit: "bool", better: "higher", sim: true},
	{name: "sched.worker_cycles_per_req", unit: "cycles", better: "lower", sim: true},
	{name: "sched.busywait_cycles_per_req", unit: "cycles", better: "lower", sim: true},
	{name: "sched.dispatcher_util", unit: "ratio", better: "lower", sim: true},
	{name: "sched.worker_util_max", unit: "ratio", better: "lower", sim: true},
	{name: "paging.hits_per_req", unit: "count", better: "higher", sim: true},
	{name: "paging.faults_per_req", unit: "count", better: "lower", sim: true},
	{name: "paging.hit_ratio", unit: "ratio", better: "higher", sim: true},
	{name: "paging.fetch_waits", unit: "count", better: "lower", sim: true},
	{name: "paging.evictions", unit: "count", better: "lower", sim: true},
	{name: "paging.dirty_writebacks", unit: "count", better: "lower", sim: true},
	{name: "paging.replica_writes", unit: "count", better: "lower", sim: true},
	{name: "paging.alloc_stalls", unit: "count", better: "lower", sim: true},
	{name: "paging.prefetch_issued", unit: "count", better: "lower", sim: true},
	{name: "paging.prefetch_hit_ratio", unit: "ratio", better: "higher", sim: true},
	{name: "paging.fetch_retries", unit: "count", better: "lower", sim: true},
	{name: "rdma.reads", unit: "count", better: "lower", sim: true},
	{name: "rdma.writes", unit: "count", better: "lower", sim: true},
	{name: "rdma.link_util_in", unit: "ratio", better: "lower", sim: true},
	{name: "rdma.link_util_out", unit: "ratio", better: "lower", sim: true},
	{name: "rdma.completion_errors", unit: "count", better: "lower", sim: true},
	{name: "memnode.allocated_mb", unit: "MiB", better: "lower", sim: true},
	{name: "sim.max_pending_events", unit: "count", better: "lower", sim: true},

	// Simulated clock: per-request spans of the traced reps (exact).
	{name: "sched.node_latency_cycles_p50", unit: "cycles", better: "lower", sim: true},
	{name: "sched.node_latency_cycles_p999", unit: "cycles", better: "lower", sim: true},
	{name: "sched.queue_wait_cycles_mean", unit: "cycles", better: "lower", sim: true},
	{name: "sched.queue_wait_cycles_p999", unit: "cycles", better: "lower", sim: true},
	{name: "sched.busywait_cycles_mean", unit: "cycles", better: "lower", sim: true},
	{name: "sched.preemptions_per_req", unit: "count", better: "lower", sim: true},
	{name: "paging.fetch_wait_cycles_mean", unit: "cycles", better: "lower", sim: true},
	{name: "paging.fetch_wait_cycles_p999", unit: "cycles", better: "lower", sim: true},
	{name: "workload.cpu_cycles_mean", unit: "cycles", better: "lower", sim: true},
	{name: "ethernet.wire_in_cycles_mean", unit: "cycles", better: "lower", sim: true},

	// Fidelity: relative error against the paper's anchor where
	// EXPERIMENTS.md records one at the workload's operating point, -1
	// where it records none (the point is unvalidated).
	{name: "sched.ref_err_p50_node_kc", unit: "ratio", better: "lower", sim: true},

	// Host clock: harness spans around each public call, median of the
	// traced reps.
	{name: "core.new_system_s", unit: "s", better: "lower"},
	{name: "workload.build_s", unit: "s", better: "lower"},
	{name: "workload.warm_s", unit: "s", better: "lower"},
	{name: "core.start_s", unit: "s", better: "lower"},
	{name: "core.run_s", unit: "s", better: "lower"},
	{name: "core.audit_s", unit: "s", better: "lower"},

	// Host clock: CPU profiles of Run in the traced reps, self time by the
	// leaf function's package. The fractions sum to 1.
	{name: "sim.host_self_frac", unit: "ratio", better: "lower"},
	{name: "sched.host_self_frac", unit: "ratio", better: "lower"},
	{name: "paging.host_self_frac", unit: "ratio", better: "lower"},
	{name: "rdma.host_self_frac", unit: "ratio", better: "lower"},
	{name: "ethernet.host_self_frac", unit: "ratio", better: "lower"},
	{name: "loadgen.host_self_frac", unit: "ratio", better: "lower"},
	{name: "memnode.host_self_frac", unit: "ratio", better: "lower"},
	{name: "stats.host_self_frac", unit: "ratio", better: "lower"},
	{name: "workload.host_self_frac", unit: "ratio", better: "lower"},
	{name: "runtime.host_self_frac", unit: "ratio", better: "lower"},
	{name: "other.host_self_frac", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.num_gc", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},

	// Host clock: layer-isolation rigs and the calibration loop, run in
	// the same process so ratios survive cross-session drift.
	{name: "sim.rig_event_ns", unit: "ns", better: "lower"},
	{name: "sim.rig_proc_switch_ns", unit: "ns", better: "lower"},
	{name: "rdma.rig_read_ns", unit: "ns", better: "lower"},
	{name: "ethernet.rig_txrx_ns", unit: "ns", better: "lower"},
	{name: "paging.rig_hit_ns", unit: "ns", better: "lower"},
	{name: "paging.rig_miss_ns", unit: "ns", better: "lower"},
	{name: "host.calib_ns", unit: "ns", better: "lower"},
}

// profileLayers are the layers a CPU sample's leaf package maps to, in
// the order their host_self_frac metrics are listed above.
var profileLayers = []string{
	"sim", "sched", "paging", "rdma", "ethernet", "loadgen", "memnode",
	"stats", "workload", "runtime", "other",
}
