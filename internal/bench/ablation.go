package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/loadgen"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The apps and bodies of the ablations whose shape the comparison table
// cannot express. The experiments table says what each one is for.

// computeApp is a pure-compute workload: §6's admitted blind spot, where
// yield-based fault handling has nothing to overlap and Adios should
// perform like the busy-wait systems.
type computeApp struct {
	cycles sim.Time
	space  *paging.Space
}

// computePages is the compute app's whole, always-resident working set.
const computePages = 64

func compute(bool) App {
	return App{Footprint: computePages * paging.PageSize, Build: func(sys *core.System) workload.App {
		sp := sys.Mgr.NewSpace("compute", sys.Mem.MustAlloc("compute", computePages*paging.PageSize))
		sp.Preload(0, sp.Size())
		return &computeApp{cycles: 4000, space: sp}
	}}
}

func (a *computeApp) Name() string { return "compute-bound" }

func (a *computeApp) NextRequest(rng *sim.RNG, _ any) (any, int) {
	return int64(rng.Intn(computePages)), 64
}

// StepHandler implements workload.App.
func (a *computeApp) StepHandler() workload.StepHandler { return computeStepper{a} }

// computeStepper is the app's request logic: an all-local access, a
// probe, and a fixed compute burn — no faults to hide.
type computeStepper struct{ a *computeApp }

// Compute step phases (StepFrame.PC values; a fresh frame is at the load).
const (
	computeLoad = iota
	computeBurn
	computeReply
)

func (computeStepper) Begin(*workload.StepFrame, any)   {}
func (computeStepper) Abort(*workload.StepFrame, error) {}

func (h computeStepper) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	switch f.PC {
	case computeLoad:
		off := payload.(int64) * paging.PageSize
		var p workload.Page
		if !p.Open(ctx, h.a.space, off) {
			return nil, 0, 0, workload.StepFault
		}
		f.W[0], f.PC = p.U64(0), computeBurn
		return nil, 0, 0, workload.StepProbe
	case computeBurn:
		f.PC = computeReply
		return nil, 0, h.a.cycles, workload.StepCompute
	default:
		return f.W[0], 64, 0, workload.StepDone
	}
}

// microTwoSided is the microbenchmark with its pages served by
// SEND/RECV and memory-node CPU involvement instead of one-sided READs,
// on every memory node; node k's server counts as memnodeK.served.
func microTwoSided(short bool) App {
	return micro(short).with(func(sys *core.System, app workload.App) workload.App {
		for k, nic := range sys.Fabric {
			sys.Stats.Register(fmt.Sprintf("memnode%d", k), nic.EnableTwoSided(rdma.DefaultServerConfig()))
		}
		return app
	})
}

// rocksdbGuided is the RocksDB workload issuing application-guided
// prefetches on its scans.
func rocksdbGuided(short bool) App {
	cfg := rocksdbConfig(short)
	cfg.AppPrefetch = true
	return sstableApp(cfg)
}

// memcachedZipf is Memcached 128 B with Zipf-skewed key popularity, so
// eviction recency matters.
func memcachedZipf(short bool) App {
	cfg := memcachedConfig(short, 128)
	return kvsApp(cfg).with(func(_ *core.System, app workload.App) workload.App {
		return &zipfKVS{Store: app.(*kvs.Store), dist: workload.Zipfian{Keys: cfg.Keys, S: 1.1}}
	})
}

type zipfKVS struct {
	*kvs.Store
	dist workload.Zipfian
}

// NextRequest draws Zipf-distributed GET keys.
func (z *zipfKVS) NextRequest(rng *sim.RNG, reuse any) (any, int) {
	m := workload.Record[kvs.Msg](reuse)
	m.Key, m.Set = uint64(z.dist.Next(rng)), false
	return m, 64 + kvs.KeySize
}

func ablWorkers(r *run) {
	counts := []int{2, 4, 8, 12, 16, 24}
	if r.Short {
		counts = []int{4, 8, 16}
	}
	r.printf("\n# Ablation: worker scaling against one dispatcher (compute-bound)\n")
	r.printf("%8s %9s %9s %10s\n", "workers", "offered_K", "tput_K", "p99.9_us")
	var pts []point
	for i, n := range counts {
		// Offer load proportional to workers so each point probes its
		// configuration's capacity region.
		pts = append(pts, point{label: "Adios", key: "Adios", idx: i, mode: core.Adios, rps: float64(n) * 420_000,
			b: r.builder(system{app: compute, local: 1, cfg: func(c *core.Config) { c.Sched.Workers = n }})})
	}
	out, _ := r.measure(pts)
	for i, pt := range out {
		r.printf("%8d %9.0f %9.0f %10.1f\n", counts[i], pt.OfferedK, pt.TputK, pt.P999us)
	}
}

func ablPool(r *run) {
	sizes := []int{16, 64, 512, 131072}
	if r.Short {
		sizes = []int{16, 131072}
	}
	r.printf("\n# Ablation: unithread pool size (Adios, microbenchmark, 2.5 MRPS)\n")
	r.printf("%10s %9s %9s %10s %9s\n", "pool", "offered_K", "tput_K", "p99.9_us", "drops")
	var pts []point
	for i, n := range sizes {
		pts = append(pts, point{label: "Adios", key: "Adios", idx: i, mode: core.Adios, rps: 2_500_000,
			b: r.builder(system{app: micro, cfg: func(c *core.Config) { c.PoolSize = n }})})
	}
	out, _ := r.measure(pts)
	for i, pt := range out {
		r.printf("%10d %9.0f %9.0f %10.1f %9d\n", sizes[i], pt.OfferedK, pt.TputK, pt.P999us, pt.Drops)
	}
}

func ablMultiDispatch(r *run) {
	workers := []int{8, 12, 16, 24}
	if r.Short {
		workers = []int{8, 16}
	}
	r.printf("\n# Ablation: dispatcher scaling (Adios, compute-bound)\n")
	r.printf("%12s %8s %9s %9s %10s\n", "dispatchers", "workers", "offered_K", "tput_K", "p99.9_us")
	var pts []point
	var rows [][2]int
	for _, nd := range []int{1, 2} {
		for i, nw := range workers {
			pts = append(pts, point{label: fmt.Sprintf("dispatchers=%d", nd), key: fmt.Sprintf("d%d", nd), idx: i,
				mode: core.Adios, rps: float64(nw) * 420_000,
				b: r.builder(system{app: compute, local: 1, cfg: func(c *core.Config) {
					c.Sched.Workers = nw
					c.Sched.Dispatchers = nd
				}})})
			rows = append(rows, [2]int{nd, nw})
		}
	}
	out, _ := r.measure(pts)
	for i, pt := range out {
		r.printf("%12d %8d %9.0f %9.0f %10.1f\n", rows[i][0], rows[i][1], pt.OfferedK, pt.TputK, pt.P999us)
	}
}

// ablTransport keeps a drive of its own for the reliable half: the
// transport client sits between the load generator and the wire, and
// System.Run builds its generator and starts the clock in one call, so
// riding Run would take a hook in core that only this caller uses. The
// points still go through the one runner and limiter.
func ablTransport(r *run) {
	loads := r.loads([]float64{1200, 1600, 2000})
	b := r.builder(system{app: micro})
	lines := make([]string, len(loads)) // one per reliable point, printed in load order
	var pts []point
	for i, k := range loads {
		pts = append(pts, point{label: "DiLOS-udp", key: "DiLOS", idx: i, b: b, mode: core.DiLOS, rps: k * 1000})
	}
	for i, k := range loads {
		pts = append(pts, point{label: "DiLOS-reliable", b: b, mode: core.DiLOS, rps: k * 1000,
			drive: func(sys *core.System, app workload.App, rps float64, warm, meas sim.Time) core.RunResult {
				end := warm + meas
				gen := loadgen.Start(sys.Env, sys.Net, app, rps, warm, end)
				client := transport.NewClient(sys.Env, sys.Net, transport.DefaultConfig())
				client.OnDeliver = gen.Deliver
				gen.SendFn = client.Send
				dedup := transport.NewDedup(1 << 16)
				sys.Sched.Admit = dedup.Admit
				sys.Env.At(warm, sys.Fabric.StartWindow)
				sys.Env.Run(end + sim.Millis(50))
				lines[i] = fmt.Sprintf("reliable@%vK: retransmits=%d queued=%d duplicates=%d lost=%d\n",
					k, client.Retransmits.Value(), client.Queued.Value(),
					dedup.Duplicates.Value(), client.Lost.Value())
				return core.RunResult{
					OfferedK: rps / 1000,
					TputK:    gen.Throughput(end) / 1000,
					P50us:    sim.Time(gen.E2E.P50()).Micros(),
					P99us:    sim.Time(gen.E2E.P99()).Micros(),
					P999us:   sim.Time(gen.E2E.P999()).Micros(),
					Drops:    client.Lost.Value(),
					Gen:      gen,
				}
			}})
	}
	_, series := r.measure(pts)
	r.printf("%s", strings.Join(lines, ""))
	r.printSweep("Ablation: UDP open-loop vs reliable transport under overload", series, nil)
}
