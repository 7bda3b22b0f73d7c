// Package core assembles the full disaggregated system and exposes the
// public build-and-run API: pick a Mode (Adios, DiLOS, DiLOS-P, Hermit,
// or legacy Infiniswap), a local-DRAM size, and a workload; run a load
// sweep; read back latency percentiles, throughput, and link
// utilization.
//
// All modes share one data plane — the RDMA fabric, the paging
// subsystem, the unithread scheduler — and differ only in policy
// (wait/dispatch/TX) and in calibrated cost constants, so performance
// differences between systems emerge from the mechanisms the paper
// credits rather than from divergent code paths.
package core

import (
	"cmp"
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/memnode"
	"repro/internal/migrate"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// Mode identifies a system under test.
type Mode int

const (
	// Adios: yield-based page fault handling, PF-aware dispatch, polling
	// delegation (§3).
	Adios Mode = iota
	// DiLOS: unikernel busy-wait page fault handling (the paper's
	// primary baseline).
	DiLOS
	// DiLOSP is DiLOS plus Concord-style cooperative preemption with a
	// 5 µs quantum (the paper's DiLOS-P).
	DiLOSP
	// Hermit: kernel-based busy-wait MD with async non-urgent work;
	// carries kernel fault/network overheads and OS scheduling jitter.
	Hermit
	// Infiniswap: legacy yield-based paging through the heavyweight
	// kernel scheduler — interrupt wake-ups and multi-microsecond
	// context switches (§7's historical anchor; excluded from the
	// paper's plots for being off-scale, included here as an extension).
	Infiniswap
)

// String returns the mode's display name.
func (m Mode) String() string {
	switch m {
	case Adios:
		return "Adios"
	case DiLOS:
		return "DiLOS"
	case DiLOSP:
		return "DiLOS-P"
	case Hermit:
		return "Hermit"
	case Infiniswap:
		return "Infiniswap"
	}
	return "unknown"
}

// Config assembles a system under test.
type Config struct {
	Mode   Mode
	Sched  sched.Config
	RDMA   rdma.Config
	Eth    ethernet.Config
	Paging paging.Config

	// PoolSize is the unithread pool's capacity (§3.2).
	PoolSize int

	// MemNodeBytes is the per-memory-node capacity.
	MemNodeBytes int64

	// MemNodes is the number of memory nodes the backing store is
	// striped across, in [1, MaxMemNodes] (1 = the paper's single memory
	// node; a one-node run is byte-identical to the pre-sharding system).
	MemNodes int

	// Replicas is the page replication factor, in [1, MemNodes]: each
	// page gets a primary plus Replicas-1 copies on distinct nodes. 1 is
	// today's unreplicated store, byte-identical to it.
	Replicas int

	// Block is the placement block in pages: copy k of page p lives on
	// node (p/Block + k) mod MemNodes (memnode.Placement). 0 or 1 stripes
	// pages across the nodes.
	Block int64

	// Faults is the fault-injection plan; the zero value disables
	// injection entirely (no interceptor is installed, so fault-free runs
	// are byte-identical to builds without the faults package wired).
	Faults faults.Config

	// Migrate configures hot-page tracking and online migration; the
	// zero value disables it entirely (no hooks fire, no epoch task is
	// scheduled, so migration-off runs are byte-identical to builds
	// without the migrate package wired).
	Migrate migrate.Config

	Seed int64
}

// Preset returns the calibrated configuration for a mode with the given
// local DRAM cache size.
func Preset(mode Mode, localBytes int64) Config {
	cfg := Config{
		Mode:         mode,
		Sched:        sched.DefaultConfig(),
		RDMA:         rdma.DefaultConfig(),
		Eth:          ethernet.DefaultConfig(),
		Paging:       paging.DefaultConfig(localBytes),
		PoolSize:     unithread.DefaultPoolSize,
		MemNodeBytes: 8 << 30,
		MemNodes:     1,
		Replicas:     1,
		Seed:         1,
	}
	switch mode {
	case Adios:
		cfg.Sched.Wait = sched.Yield
		cfg.Sched.Dispatch = sched.PFAware
		cfg.Sched.Tx = sched.DelegatedTx
	case DiLOS:
		cfg.Sched.Wait = sched.BusyWait
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
	case DiLOSP:
		cfg.Sched.Wait = sched.BusyWait
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
		cfg.Sched.Preempt = true
	case Hermit:
		cfg.Sched.Wait = sched.BusyWait
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
		// Kernel-path overheads beyond the unikernel baseline. Hermit
		// overlaps ~10 % of non-urgent fault work asynchronously (§2.3),
		// which is already discounted from KernelFaultExtra.
		cfg.Sched.Costs.KernelFaultExtra = 1500
		cfg.Sched.Costs.KernelNetExtra = 1200
		cfg.Sched.Costs.JitterProb = 0.004
		cfg.Sched.Costs.JitterMean = sim.Micros(130)
	case Infiniswap:
		cfg.Sched.Wait = sched.Yield
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
		// Interrupt-driven wake-up plus kernel context switches: ~4 µs
		// per switch (the figure §7 cites), charged on the fault path.
		cfg.Sched.Costs.UnithreadSwitch = sim.Micros(4)
		cfg.Sched.Costs.KernelFaultExtra = sim.Micros(5)
		cfg.Sched.Costs.KernelNetExtra = 2600
		cfg.Sched.Costs.JitterProb = 0.0025
		cfg.Sched.Costs.JitterMean = sim.Micros(120)
	}
	return cfg
}

// System is an assembled compute node + memory node(s) + client network.
type System struct {
	Cfg Config
	Env *sim.Env
	Net *ethernet.Net

	// Fabric holds one NIC (one independent link) per memory node.
	Fabric rdma.Fabric

	// Nodes are the memory nodes and Mem the allocation view over them,
	// which places every page.
	Nodes []*memnode.Node
	Mem   *memnode.Cluster

	Mgr   *paging.Manager
	Pool  *unithread.Pool
	Sched *sched.Scheduler // nil until Start

	// Health and Repair exist only on runs with a crash= plan: the
	// failure detector over the fabric and the background re-replicator.
	// Both nil otherwise, so crash-free runs schedule no extra events.
	Health *rdma.Health
	Repair *paging.Repairer

	// Migr exists only on runs with migration enabled (which Validate
	// allows on two nodes or more): the hot-page tracker + online
	// migration planner. Nil otherwise, so migration-off runs schedule
	// no extra events.
	Migr *migrate.Migrator

	// Stats names the counters of everything above that was built, and
	// of each node's fault injector, filled once by NewSystem and
	// StartApp; callers snapshot it after Run.
	Stats stats.Registry

	// Trace, if set before StartApp, records the run: the scheduler's
	// per-core spans, the failover reads of a crash run and, when
	// migration is on, the migrate lane.
	Trace *trace.Recorder
}

// MaxMemNodes bounds Config.MemNodes: paging, repair and migration keep
// every owner, tried, pending and holder set as a uint64 shifted by node
// index, so a node past 63 would silently drop out of all of them.
const MaxMemNodes = 64

// Validate reports whether NewSystem can build cfg: MemNodes in [1,
// MaxMemNodes], Replicas in [1, MemNodes] (each copy needs a node of its
// own), Block >= 0, a frame pool paging.CheckFramePool accepts, a fault
// plan that names only nodes the system has (faults.Config.FitsNodes)
// and whose crash window is one (faults.Config.CheckCrash), and
// migration only with two nodes or more to move pages between. The
// CLIs turn the error into their usage error.
func (cfg Config) Validate() error {
	n := cfg.MemNodes
	switch {
	case n < 1 || n > MaxMemNodes:
		return fmt.Errorf("-memnodes must be in [1, %d], got %d", MaxMemNodes, n)
	case cfg.Replicas < 1 || cfg.Replicas > n:
		return fmt.Errorf("-replicas must be in [1, %d], one copy per memory node, got %d", n, cfg.Replicas)
	case cfg.Block < 0:
		return fmt.Errorf("-block must be >= 0 (0 = page striping), got %d", cfg.Block)
	case cfg.Migrate.Enabled && n < 2:
		return fmt.Errorf("-migrate needs at least 2 memory nodes, got %d", n)
	}
	if err := paging.CheckFramePool(float64(cfg.Paging.FramePoolBytes)); err != nil {
		return err
	}
	if err := cmp.Or(cfg.Faults.FitsNodes(n), cfg.Faults.CheckCrash()); err != nil {
		return fmt.Errorf("-faults: %v", err)
	}
	return nil
}

// NewSystem builds the data plane. Applications then allocate their
// spaces (via Mgr and Mem) before StartApp wires the scheduler. It
// panics with Validate's error on a config Validate rejects.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	n := cfg.MemNodes
	env := sim.NewEnv(cfg.Seed)
	nodes := make([]*memnode.Node, n)
	for k := range nodes {
		nodes[k] = memnode.New(cfg.MemNodeBytes)
	}
	sys := &System{
		Cfg:    cfg,
		Env:    env,
		Net:    ethernet.New(env, cfg.Eth),
		Fabric: rdma.NewFabric(env, cfg.RDMA, n),
		Nodes:  nodes,
		Mem: memnode.NewCluster(nodes, paging.PageSize,
			memnode.Placement{Nodes: n, Block: cfg.Block, Replicas: cfg.Replicas}),
		Mgr:  paging.NewManager(env, cfg.Paging),
		Pool: unithread.NewPool(cfg.PoolSize),
		Stats: stats.Registry{
			"sim.max_pending": func() float64 { return float64(env.MaxPending()) },
			"sim.skip_aheads": func() float64 { return float64(env.KernelStats().SkipAheads) },
			"sim.pushes":      func() float64 { return float64(env.Pushes()) },
		},
	}
	st := sys.Stats
	st.Register("ethernet", sys.Net)
	for k, node := range nodes {
		layer := fmt.Sprintf("memnode%d", k)
		st.Register(layer, sys.Fabric[k])
		st.Register(layer, node)
		st[layer+".stalled_us"] = func() float64 { return sim.Time(node.StalledTime()).Micros() }
		if cfg.Faults.Injects() && cfg.Faults.Targets(k) {
			inj := faults.NewForNode(cfg.Faults, node, cfg.Seed, k)
			sys.Fabric[k].SetInterceptor(inj)
			st.Register(layer, inj)
		}
	}
	st.Register("paging", sys.Mgr)
	st["paging.resident_frames"] = func() float64 { return float64(sys.Mgr.TotalFrames() - sys.Mgr.FreeFrames()) }
	st["paging.frames"] = func() float64 { return float64(sys.Mgr.TotalFrames()) }
	st.Register("unithread", sys.Pool)
	if cfg.Faults.CrashSet {
		var rejoin sim.Time
		if cfg.Faults.RejoinSet {
			rejoin = cfg.Faults.RejoinAt
		}
		sys.Fabric[cfg.Faults.CrashNode].ScheduleCrash(cfg.Faults.CrashAt, rejoin)
		sys.Health = rdma.NewHealth(env, sys.Fabric, rdma.DefaultHealthConfig())
		st.Register("health", sys.Health)
	}
	return sys
}

// StartApp launches the scheduler (dispatcher + workers) for app, whose
// every request runs on the worker cores' step machine with no stack of
// its own, then the repairer and migrator the build has, and last the
// paging manager with its pinned reclaimer thread.
func (sys *System) StartApp(app workload.App) {
	sys.Sched = sched.New(sys.Env, sys.Cfg.Sched, sys.Net, sys.Fabric, sys.Mgr, sys.Pool, app.StepHandler())
	sys.Sched.Trace = sys.Trace
	sys.Sched.Start()
	sys.Stats.Register("sched", sys.Sched)
	sys.Stats["sched.worker_cycles"] = func() float64 { return float64(sys.Sched.CPUCycles()) }
	sys.Stats["sched.busy_wait_cycles"] = func() float64 { return float64(sys.Sched.BusyWaitCycles()) }
	sys.Stats["sched.dispatcher_cycles"] = func() float64 { return float64(sys.Sched.DispatcherCycles()) }
	sys.Stats.Register("app", app)
	// A nil *rdma.Health or *migrate.Migrator stored in the interface
	// would not read as nil: fill each only when it was built.
	w := paging.Wiring{Fabric: sys.Fabric, Trace: sys.Trace}
	if sys.Health != nil {
		sys.Repair = paging.NewRepairer(sys.Mgr, sys.Fabric)
		sys.Health.OnDown = sys.Repair.NodeDown
		sys.Health.Start()
		sys.Stats.Register("repair", sys.Repair)
		w.Health = sys.Health
	}
	if sys.Cfg.Migrate.Enabled {
		sys.Migr = migrate.New(sys.Mgr, sys.Mem, sys.Fabric, sys.Cfg.Migrate)
		sys.Stats.Register("migrate", sys.Migr)
		w.Migrator = sys.Migr
	}
	sys.Mgr.Start(w)
}

// RunResult summarizes one measured run.
type RunResult struct {
	Mode      Mode
	OfferedK  float64 // offered load, KRPS
	TputK     float64 // achieved throughput, KRPS
	P50us     float64
	P99us     float64
	P999us    float64
	MeanUs    float64
	LinkUtil  float64 // RDMA inbound (fetch) link utilization
	Drops     int64   // RX + central-queue + pool drops
	Completed int64

	// Aborts counts requests failed by retry exhaustion on a demand
	// fetch; zero when the fault plan is disabled. Every other count is
	// in the System's Stats registry.
	Aborts int64

	// Breakdown aggregates (cycles) over completed requests, for the
	// Figure 2(c)/7(c) decomposition.
	Gen *loadgen.Gen // full histograms for CDFs and per-class latency
}

// Run drives the system with app at rateRPS for warmup+measure simulated
// time and returns the measurement. The system must have been started.
func (sys *System) Run(app workload.App, rateRPS float64, warmup, measure sim.Time) RunResult {
	end := warmup + measure
	gen := loadgen.Start(sys.Env, sys.Net, app, rateRPS, warmup, end)
	if c, ok := app.(interface{ Classify(any) string }); ok {
		gen.Classifier = c.Classify
	}
	sys.Env.At(warmup, func() {
		sys.Fabric.StartWindow()
		sys.Net.StartWindow()
	})
	// Capture utilization exactly at the window end, then drain so
	// in-flight responses land.
	var linkUtil float64
	sys.Env.At(end, func() { linkUtil = sys.Fabric.InUtilization() })
	sys.Env.Run(end + sim.Millis(50))

	now := end
	return RunResult{
		Mode:      sys.Cfg.Mode,
		OfferedK:  rateRPS / 1000,
		TputK:     gen.Throughput(now) / 1000,
		P50us:     sim.Time(gen.E2E.P50()).Micros(),
		P99us:     sim.Time(gen.E2E.P99()).Micros(),
		P999us:    sim.Time(gen.E2E.P999()).Micros(),
		MeanUs:    sim.Time(gen.E2E.Mean()).Micros(),
		LinkUtil:  linkUtil,
		Drops:     sys.Net.Drops.Value() + sys.Sched.DropsQueue.Value() + sys.Sched.DropsPool.Value(),
		Completed: sys.Sched.Completed.Value(),
		Aborts:    sys.Sched.FaultAborts.Value(),
		Gen:       gen,
	}
}
