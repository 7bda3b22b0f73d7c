package main

import (
	"repro/internal/core"
	"repro/internal/sstable"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// microBytes is the microbenchmark working set, the same 64 MiB the
// figure experiments use.
const microBytes int64 = 64 << 20

// builtApp is one constructed application with the oracles the checked
// rep consults once the run has finished.
type builtApp struct {
	app workload.App
	// mismatches reports responses that did not match the seeded
	// expectation; verify runs the app's own end-of-run consistency
	// check (nil when the app has none).
	mismatches func() int64
	verify     func() error
}

// spec is one fixed-load workload: a system configuration, an
// application and an open-loop rate in simulated time.
type spec struct {
	name string
	why  string
	mode core.Mode
	rate float64 // offered load, requests per simulated second

	// warmMS and measureMS are one simulated window: a quarter of ISSUE
	// 11's, every workload shrunk by the same factor, so that one rep of
	// Run costs about half a second of host time.
	warmMS, measureMS float64

	// windows is how many distinct simulations one run pools the
	// simulated end-to-end metrics over. Timed rep n runs sub-seed n mod
	// windows, so the host time a run spends repeating itself also buys
	// simulated samples: a P99.9 read off one window near a knee moves by
	// a fifth from seed to seed, off sixteen by a quarter of that. The
	// applications get eight because their set-up makes a rep longer.
	windows int

	// repSeconds is the nominal host cost of one rep. -seconds buys
	// seconds ÷ repSeconds timed reps: a count, not the clock, ends the
	// run, so every report made with one -seconds has the same number of
	// reps behind each statistic. At the 10 s BENCHMARK.json runs with,
	// that is every window once and four of them a second time, which
	// are held against their first run bit for bit.
	repSeconds float64

	// local is the local DRAM size as a fraction of the working set.
	local float64

	// tune adjusts the preset before the system is built (nil = none).
	tune func(*core.Config)

	// build constructs the application inside sys; its cost is
	// workload.build_s.
	build func(sys *core.System) builtApp

	// size returns the working-set size local is a fraction of. The apps
	// whose footprint is only known once built are sized from a
	// throwaway build, once per process and outside every timed span.
	size func() int64

	// refP50NodeKc is the paper's anchor for the median compute-node
	// residence at this operating point, in Kcycles (0 = the paper
	// records none here, so the point is unvalidated).
	refP50NodeKc float64
}

func arrayBuilder(writeFrac float64) func(*core.System) builtApp {
	return func(sys *core.System) builtApp {
		a := workload.NewArrayApp(sys.Mgr, sys.Mem, microBytes)
		a.WriteFrac = writeFrac
		return builtApp{app: a, mismatches: a.Mismatches.Value}
	}
}

func microSize() int64 { return microBytes }

var sstableCfg = sstable.DefaultConfig(180_000, 1024)

var tpccCfg = tpcc.DefaultConfig(2)

// probeSize builds app once in a throwaway system to learn its
// footprint, as the figure experiments' builders do.
func probeSize(build func(sys *core.System) int64) func() int64 {
	var size int64
	return func() int64 {
		if size == 0 {
			size = build(core.NewSystem(core.Preset(core.Adios, 1<<22)))
		}
		return size
	}
}

// specs is the benchmark's workload table. BENCHMARK.json lists the same
// names; benchmark_test.go holds the two to one set.
var specs = []spec{
	{
		name: "micro-adios",
		why:  "Adios near its own knee: flat tier, 0.83 demand faults per request, so the sched flat path, the paging miss path, rdma and sim do the work.",
		mode: core.Adios, rate: 2_100_000, warmMS: 6.25, measureMS: 25, windows: 16, repSeconds: 0.5, local: 0.20,
		build: arrayBuilder(0), size: microSize,
	},
	{
		name: "micro-dilos",
		why:  "The paper's Fig 2(b,c) point: busy-wait on the goroutine tier at the DiLOS knee; sim_p999_us here carries the paper's tail claim.",
		mode: core.DiLOS, rate: 1_300_000, warmMS: 10, measureMS: 40, windows: 16, repSeconds: 0.5, local: 0.20,
		build: arrayBuilder(0), size: microSize,
		refP50NodeKc: 10.6,
	},
	{
		name: "micro-resident",
		why:  "Local memory holds the whole array, so no request faults: isolates the fixed per-request cost and the paging hit path; a fetch-path change must not move it.",
		mode: core.Adios, rate: 2_100_000, warmMS: 10, measureMS: 40, windows: 16, repSeconds: 0.5, local: 1.25,
		build: arrayBuilder(0), size: microSize,
	},
	{
		name: "micro-write-shards",
		why:  "Half the requests store, over 4 memory nodes with 2 replicas: dirty evictions, write-back fan-out and the multi-NIC fabric, which read-only workloads never touch.",
		mode: core.Adios, rate: 1_300_000, warmMS: 10, measureMS: 40, windows: 16, repSeconds: 0.5, local: 0.20,
		tune: func(cfg *core.Config) {
			cfg.MemNodes = 4
			cfg.Replicas = 2
		},
		build: arrayBuilder(0.5), size: microSize,
	},
	{
		name: "rocksdb-adios",
		why:  "A real app on the goroutine tier under yield: 99% GET / 1% SCAN(100), bimodal service times, prefetch; set-up populates about 180 MiB.",
		mode: core.Adios, rate: 500_000, warmMS: 10, measureMS: 40, windows: 8, repSeconds: 0.8, local: 0.20,
		build: func(sys *core.System) builtApp {
			t := sstable.New(sys.Mgr, sys.Mem, sstableCfg)
			return builtApp{app: t, mismatches: t.Mismatches.Value}
		},
		size: probeSize(func(sys *core.System) int64 {
			return sstable.New(sys.Mgr, sys.Mem, sstableCfg).SpaceSize()
		}),
	},
	{
		name: "tpcc-adios",
		why:  "Compute-heavy transactions with about 164 page hits and 0.6 faults each plus write-backs: workload, tpcc, btree and the paging hit path dominate, the fetch path does little.",
		mode: core.Adios, rate: 200_000, warmMS: 12.5, measureMS: 50, windows: 8, repSeconds: 0.8, local: 0.20,
		build: func(sys *core.System) builtApp {
			db := tpcc.New(sys.Env, sys.Mgr, sys.Mem, tpccCfg)
			return builtApp{app: db, mismatches: func() int64 { return 0 }, verify: db.CheckConsistency}
		},
		size: probeSize(func(sys *core.System) int64 {
			return tpcc.New(sys.Env, sys.Mgr, sys.Mem, tpccCfg).TotalBytes()
		}),
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}
