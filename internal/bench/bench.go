// Package bench regenerates every table and figure of the paper's
// evaluation (§2 and §5). Each experiment has an id (table1, fig2a …
// fig13) matching DESIGN.md's index; Run dispatches on it. Experiments
// print the same rows/series the paper plots and return them for
// programmatic assertions (the repository-root benchmarks).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/plot"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options controls sweep resolution and measurement windows.
type Options struct {
	// Short reduces sweep resolution and dataset sizes so the whole
	// suite runs in CI time; full mode reproduces the paper's sweeps.
	Short bool
	// Out receives the printed tables (nil discards).
	Out io.Writer
	// Plot additionally renders ASCII latency-vs-throughput charts of
	// each sweep to Out.
	Plot bool
	// CSV, if non-nil, receives every measured point as CSV rows
	// (experiment, system, offered/tput KRPS, percentiles, utilization,
	// drops) for external plotting; see CSVHeader for the schema. When
	// installed via EnableCSV the header row is emitted once before the
	// first data row.
	CSV io.Writer
	// Seed for all runs.
	Seed int64
	// Parallel is the maximum number of simulations run concurrently
	// (measured operating points; each builds its own core.System and
	// sim.Env, so points are independent). 0 or 1 runs sequentially.
	// Results are reassembled in deterministic order, so tables, CSV
	// rows, and returned Point slices are identical to a sequential run.
	// Prefer SetParallel, which also installs the shared limiter.
	Parallel int

	// sem bounds concurrently-running simulations across every sweep
	// sharing these Options (including copies — channels are references),
	// so experiment-level and point-level fan-out together stay ≤
	// Parallel. Created by SetParallel; runPoints falls back to a local
	// limiter when nil.
	sem chan struct{}
	// exp is the experiment id being run, set by Run; it salts per-point
	// seeds so different experiments draw independent random streams.
	exp string
	// csvHeader emits the CSV header once across all Options copies.
	csvHeader *sync.Once
}

// CSVHeader is the schema of the CSV rows emitted by every experiment;
// see EXPERIMENTS.md for the column descriptions.
const CSVHeader = "experiment,system,offered_KRPS,tput_KRPS,p50_us,p99_us,p999_us,link_util,drops"

// EnableCSV directs measured points to w as CSV rows and arranges for
// the CSVHeader row to be written once before the first data row.
func (o *Options) EnableCSV(w io.Writer) {
	o.CSV = w
	o.csvHeader = new(sync.Once)
}

// SetParallel allows up to n concurrent simulations and installs the
// shared limiter so nested fan-out (experiments × points) stays bounded
// by n overall.
func (o *Options) SetParallel(n int) {
	if n < 1 {
		n = 1
	}
	o.Parallel = n
	o.sem = make(chan struct{}, n)
}

// DefaultOptions returns full-resolution options writing to w.
func DefaultOptions(w io.Writer) Options { return Options{Out: w, Seed: 1} }

// faultPlan is the process-wide fault plan applied to every system an
// experiment builds (installed from the CLI's -faults flag). The zero
// value injects nothing, leaving every experiment byte-identical to a
// build without fault support. The resilience experiment uses it as the
// base plan for its fault-rate sweep.
var faultPlan faults.Config

// SetFaults installs the default fault plan for subsequently built
// systems. Not safe to call concurrently with running experiments.
func SetFaults(cfg faults.Config) { faultPlan = cfg }

// memNodes is the process-wide memory-node count applied to every
// system an experiment builds (installed from the CLI's -memnodes
// flag). One node is the paper's topology and is byte-identical to a
// build without sharding support. The shards experiment overrides it
// per point for its node-count sweep.
var memNodes = 1

// SetMemNodes installs the default memory-node count for subsequently
// built systems (n < 1 is treated as 1). Not safe to call concurrently
// with running experiments.
func SetMemNodes(n int) {
	if n < 1 {
		n = 1
	}
	memNodes = n
}

// replicas is the process-wide page replication factor applied to every
// system an experiment builds (installed from the CLI's -replicas
// flag). 1 is the paper's unreplicated store and is byte-identical to a
// build without replication support. The failover experiment overrides
// it per point for its R sweep.
var replicas = 1

// SetReplicas installs the default replication factor for subsequently
// built systems (r < 1 is treated as 1; core clamps to the node count).
// Not safe to call concurrently with running experiments.
func SetReplicas(r int) {
	if r < 1 {
		r = 1
	}
	replicas = r
}

// migrPlan is the process-wide page-migration plan applied to every
// system an experiment builds (installed from the CLI's -migrate flag).
// The zero value builds no migrator, leaving every experiment
// byte-identical to a build without migration support. The rebalance
// experiment overrides it per point for its on/off comparison.
var migrPlan migrate.Config

// SetMigrate installs the default migration plan for subsequently built
// systems. Not safe to call concurrently with running experiments.
func SetMigrate(cfg migrate.Config) { migrPlan = cfg }

// skew is the process-wide Zipfian key-skew exponent applied to every
// app an experiment builds that supports one (installed from the CLI's
// -skew flag). Zero keeps each app's native distribution and draws the
// identical RNG stream as a build without skew support. The rebalance
// experiment overrides it per point for its skew sweep.
var skew float64

// SetSkew installs the default key-skew exponent for subsequently built
// apps. Not safe to call concurrently with running experiments.
func SetSkew(s float64) { skew = s }

func (o *Options) printf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// windows returns warmup and measure durations for a given offered load,
// targeting enough samples for a stable P99.9.
func (o *Options) windows(rps float64) (warmup, measure sim.Time) {
	target := 80_000.0 // samples
	if o.Short {
		target = 15_000
	}
	ms := target / rps * 1000
	if ms < 20 {
		ms = 20
	}
	if ms > 3000 {
		ms = 3000
	}
	return sim.Millis(ms / 4), sim.Millis(ms)
}

// Point is one measured operating point of one system.
type Point struct {
	Mode     string
	OfferedK float64
	TputK    float64
	P50us    float64
	P99us    float64
	P999us   float64
	LinkUtil float64
	Drops    int64

	// Aborts counts requests failed by fetch-retry exhaustion and
	// Retries the fetch/write-back reposts behind them — both zero unless
	// a fault plan is active (see the resilience experiment). Completed
	// is the total finished-request count the abort fraction is over.
	Aborts    int64
	Retries   int64
	Completed int64

	// Failovers counts fetches re-routed to a replica off a dead node
	// and Repaired the copies re-replication restored — both zero unless
	// a crash plan is active (see the failover experiment).
	Failovers int64
	Repaired  int64

	// Per-class percentiles (e.g. GET/SCAN), when the workload is
	// classified.
	Class map[string]ClassLat
}

// ClassLat is per-request-class latency.
type ClassLat struct {
	P50us  float64
	P99us  float64
	P999us float64
	Count  int64
}

// builder constructs a fresh system+app for a mode. Every measured point
// uses a fresh build so points are independent and deterministic.
type builder func(mode core.Mode, seed int64) (*core.System, workload.App)

// mutator optionally adjusts a preset before the system is built.
type mutator func(cfg *core.Config)

// buildPreset makes a builder from an app factory with the given
// local-memory fraction of the app's working set.
func buildPreset(localFrac float64, mut mutator,
	mkApp func(sys *core.System) workload.App, appBytes func() int64) builder {
	return func(mode core.Mode, seed int64) (*core.System, workload.App) {
		local := int64(localFrac * float64(appBytes()))
		cfg := core.Preset(mode, local)
		cfg.Seed = seed
		cfg.Faults = faultPlan
		cfg.MemNodes = memNodes
		cfg.Replicas = replicas
		cfg.Migrate = migrPlan
		if mut != nil {
			mut(&cfg)
		}
		sys := core.NewSystem(cfg)
		app := mkApp(sys)
		if skew > 0 {
			if sk, ok := app.(interface{ SetSkew(float64) }); ok {
				sk.SetSkew(skew)
			}
		}
		sys.StartApp(app)
		return sys, app
	}
}

// pointSpec names one (builder, mode, load) operating point of a sweep
// plus the seed its simulation runs under.
type pointSpec struct {
	b    builder
	mode core.Mode
	rps  float64
	seed int64
}

// pointSeed derives a per-point seed from the base seed, the experiment
// id, the mode, and the point's load index, so every operating point
// draws an independent random stream and parallel execution order cannot
// matter. The mix is FNV-1a over the strings followed by a splitmix64
// finalizer.
func pointSeed(base int64, exp, mode string, idx int) int64 {
	h := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, s := range [2]string{exp, mode} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
		h *= 0x9e3779b97f4a7c15
	}
	h += uint64(idx)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	s := int64(h >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// runPoints measures every spec and returns the results in spec order.
// With Parallel > 1 the points run concurrently, each on its own
// core.System and sim.Env; the ordered reassembly plus per-spec seeds
// make the output bit-identical to a sequential run.
func (o *Options) runPoints(specs []pointSpec) []Point {
	pts := make([]Point, len(specs))
	if o.Parallel <= 1 || len(specs) <= 1 {
		for i, sp := range specs {
			pts[i] = o.runPointSeeded(sp.b, sp.mode, sp.rps, sp.seed)
		}
		return pts
	}
	sem := o.sem
	if sem == nil {
		sem = make(chan struct{}, o.Parallel)
	}
	var wg sync.WaitGroup
	for i := range specs {
		i, sp := i, specs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pts[i] = o.runPointSeeded(sp.b, sp.mode, sp.rps, sp.seed)
		}()
	}
	wg.Wait()
	return pts
}

// runPoint measures one (mode, load) operating point under the base seed.
func (o *Options) runPoint(b builder, mode core.Mode, rps float64) Point {
	return o.runPointSeeded(b, mode, rps, o.seed())
}

// runPointSeeded measures one (mode, load) operating point.
func (o *Options) runPointSeeded(b builder, mode core.Mode, rps float64, seed int64) Point {
	sys, app := b(mode, seed)
	warm, meas := o.windows(rps)
	res := sys.Run(app, rps, warm, meas)
	pt := Point{
		Mode:      mode.String(),
		OfferedK:  res.OfferedK,
		TputK:     res.TputK,
		P50us:     res.P50us,
		P99us:     res.P99us,
		P999us:    res.P999us,
		LinkUtil:  res.LinkUtil,
		Drops:     res.Drops,
		Aborts:    res.Aborts,
		Retries:   res.Retries,
		Completed: res.Completed,
		Failovers: res.Failovers,
		Repaired:  res.Repaired,
	}
	if len(res.Gen.ByClass) > 0 {
		pt.Class = make(map[string]ClassLat)
		for class, h := range res.Gen.ByClass {
			pt.Class[class] = ClassLat{
				P50us:  sim.Time(h.P50()).Micros(),
				P99us:  sim.Time(h.P99()).Micros(),
				P999us: sim.Time(h.P999()).Micros(),
				Count:  h.Count(),
			}
		}
	}
	return pt
}

func (o *Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// sweep measures a list of offered loads for each mode, fanning the
// points across goroutines when Options.Parallel allows.
func (o *Options) sweep(b builder, modes []core.Mode, loadsK []float64) map[string][]Point {
	specs := make([]pointSpec, 0, len(modes)*len(loadsK))
	for _, m := range modes {
		for i, k := range loadsK {
			specs = append(specs, pointSpec{
				b: b, mode: m, rps: k * 1000,
				seed: pointSeed(o.seed(), o.exp, m.String(), i),
			})
		}
	}
	pts := o.runPoints(specs)
	out := make(map[string][]Point)
	for i, sp := range specs {
		out[sp.mode.String()] = append(out[sp.mode.String()], pts[i])
	}
	return out
}

// printSweep renders a sweep as aligned rows, plus optional chart and
// CSV output.
func (o *Options) printSweep(title string, series map[string][]Point) {
	o.printf("\n# %s\n", title)
	o.printf("%-11s %9s %9s %10s %10s %10s %6s %9s\n",
		"system", "offered_K", "tput_K", "p50_us", "p99_us", "p99.9_us", "util%", "drops")
	for _, name := range sortedKeys(series) {
		for _, p := range series[name] {
			o.printf("%-11s %9.4g %9.4g %10.1f %10.1f %10.1f %6.1f %9d\n",
				name, p.OfferedK, p.TputK, p.P50us, p.P99us, p.P999us, p.LinkUtil*100, p.Drops)
		}
	}
	o.emitCSV(title, series)
	if o.Plot && o.Out != nil {
		curves := make(map[string][]plot.XY)
		for name, pts := range series {
			for _, p := range pts {
				curves[name] = append(curves[name], plot.XY{X: p.TputK, Y: p.P999us})
			}
		}
		plot.Render(o.Out, title+" — P99.9 vs throughput", curves,
			plot.Options{LogY: true, XLabel: "tput KRPS", YLabel: "p99.9 us"})
	}
}

// emitCSV appends the sweep's points to the CSV sink, preceded by the
// CSVHeader row the first time any Options copy writes a row.
func (o *Options) emitCSV(title string, series map[string][]Point) {
	if o.CSV == nil {
		return
	}
	if o.csvHeader != nil {
		o.csvHeader.Do(func() { fmt.Fprintln(o.CSV, CSVHeader) })
	}
	slug := title
	if i := strings.IndexAny(slug, ":"); i > 0 {
		slug = slug[:i]
	}
	slug = strings.ReplaceAll(strings.TrimSpace(slug), ",", ";")
	for _, name := range sortedKeys(series) {
		for _, p := range series[name] {
			fmt.Fprintf(o.CSV, "%s,%s,%.0f,%.0f,%.2f,%.2f,%.2f,%.4f,%d\n",
				strings.TrimRight(slug, ":"), name, p.OfferedK, p.TputK,
				p.P50us, p.P99us, p.P999us, p.LinkUtil, p.Drops)
		}
	}
}

// printClassSweep renders per-class latency rows (Figure 11 style).
func (o *Options) printClassSweep(title string, series map[string][]Point, classes []string) {
	o.printf("\n# %s\n", title)
	o.printf("%-11s %9s %9s", "system", "offered_K", "tput_K")
	for _, c := range classes {
		o.printf(" %9s %10s %11s", c+"_p50", c+"_p99", c+"_p99.9")
	}
	o.printf("\n")
	for _, name := range sortedKeys(series) {
		for _, p := range series[name] {
			o.printf("%-11s %9.4g %9.4g", name, p.OfferedK, p.TputK)
			for _, c := range classes {
				cl := p.Class[c]
				o.printf(" %9.1f %10.1f %11.1f", cl.P50us, cl.P99us, cl.P999us)
			}
			o.printf("\n")
		}
	}
	o.emitCSV(title, series)
	if o.Plot && o.Out != nil && len(classes) > 0 {
		curves := make(map[string][]plot.XY)
		for name, pts := range series {
			for _, p := range pts {
				curves[name] = append(curves[name], plot.XY{X: p.TputK, Y: p.Class[classes[0]].P999us})
			}
		}
		plot.Render(o.Out, title+" — "+classes[0]+" P99.9 vs throughput", curves,
			plot.Options{LogY: true, XLabel: "tput KRPS", YLabel: "p99.9 us"})
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loads builds a load list, thinning it in short mode.
func (o *Options) loads(full []float64) []float64 {
	if !o.Short {
		return full
	}
	var out []float64
	for i := 0; i < len(full); i += 2 {
		out = append(out, full[i])
	}
	if len(out) == 0 || out[len(out)-1] != full[len(full)-1] {
		out = append(out, full[len(full)-1])
	}
	return out
}

// experiments maps every accepted id to its implementation. Aliases for
// figures that share one generating run (fig2d/fig2e, fig7a/fig7b,
// fig7d/fig7e) each have their own entry; the tests assert this map and
// All agree exactly.
var experiments = map[string]func(Options){
	"table1": func(o Options) { Table1(o) },
	"fig2a":  func(o Options) { Fig2a(o) },
	"fig2b":  func(o Options) { Fig2b(o) },
	"fig2c":  func(o Options) { Fig2c(o) },
	"fig2d":  func(o Options) { Fig2de(o) },
	"fig2e":  func(o Options) { Fig2de(o) },
	"fig7a":  func(o Options) { Fig7ab(o) },
	"fig7b":  func(o Options) { Fig7ab(o) },
	"fig7c":  func(o Options) { Fig7c(o) },
	"fig7d":  func(o Options) { Fig7de(o) },
	"fig7e":  func(o Options) { Fig7de(o) },
	"fig8":   func(o Options) { Fig8(o) },
	"fig9":   func(o Options) { Fig9(o) },
	"table2": func(o Options) { Table2(o) },
	"fig10":  func(o Options) { Fig10(o) },
	"fig10e": func(o Options) { Fig10e(o) },
	"fig11":  func(o Options) { Fig11(o) },
	"fig11e": func(o Options) { Fig11e(o) },
	"fig12":  func(o Options) { Fig12(o) },
	"fig13":  func(o Options) { Fig13(o) },

	"abl-prefetch":  func(o Options) { AblPrefetch(o) },
	"abl-reclaim":   func(o Options) { AblReclaim(o) },
	"abl-compute":   func(o Options) { AblCompute(o) },
	"abl-workers":   func(o Options) { AblWorkers(o) },
	"abl-quantum":   func(o Options) { AblQuantum(o) },
	"abl-pool":      func(o Options) { AblPool(o) },
	"abl-twosided":  func(o Options) { AblTwoSided(o) },
	"abl-steal":     func(o Options) { AblSteal(o) },
	"abl-ipi":       func(o Options) { AblIPI(o) },
	"abl-evict":     func(o Options) { AblEvict(o) },
	"abl-hugepage":  func(o Options) { AblHugePage(o) },
	"abl-canvas":    func(o Options) { AblCanvas(o) },
	"abl-multidisp": func(o Options) { AblMultiDispatch(o) },
	"abl-transport": func(o Options) { AblTransport(o) },
	"infiniswap":    func(o Options) { Infiniswap(o) },
	"resilience":    func(o Options) { Resilience(o) },
	"shards":        func(o Options) { Shards(o) },
	"failover":      func(o Options) { Failover(o) },
	"rebalance":     func(o Options) { Rebalance(o) },
}

// nodeFloor is, for the experiments that set the memory-node count of
// their own points, the smallest count they build at; every other
// experiment builds all of its points at the -memnodes count.
var nodeFloor = map[string]int{"shards": 1, "rebalance": rebalanceNodes}

// CheckPlan reports whether plan can run on every system experiment id
// builds when the default node count is n: a crash must name a node all
// of its points have (core.NewSystem panics on one that does not). Run
// checks the installed plan; a CLI calls it first to report a usage error
// instead.
func CheckPlan(id string, plan faults.Config, n int) error {
	if floor, ok := nodeFloor[id]; ok {
		n = floor
	}
	if err := plan.FitsNodes(n); err != nil {
		return fmt.Errorf("experiment %s: %v", id, err)
	}
	return nil
}

// Run executes the experiment with the given id. Returns an error for
// unknown ids and for a fault plan the experiment cannot run under.
// Results are printed to opt.Out.
func Run(id string, opt Options) error {
	fn, ok := experiments[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
	if err := CheckPlan(id, faultPlan, memNodes); err != nil {
		return fmt.Errorf("bench: %v", err)
	}
	opt.exp = id
	fn(opt)
	return nil
}

// All lists every experiment id Run accepts, in DESIGN.md order.
func All() []string {
	return []string{
		"table1", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig8", "fig9",
		"table2", "fig10", "fig10e", "fig11", "fig11e", "fig12", "fig13",
		"abl-prefetch", "abl-reclaim", "abl-compute", "abl-workers",
		"abl-quantum", "abl-pool", "abl-twosided", "abl-steal",
		"abl-ipi", "abl-evict", "abl-hugepage", "abl-canvas",
		"abl-multidisp", "abl-transport", "infiniswap", "resilience",
		"shards", "failover", "rebalance",
	}
}

// txPolicy helper for Figure 9.
func withTx(tx sched.TxPolicy) mutator {
	return func(cfg *core.Config) { cfg.Sched.Tx = tx }
}

// withDispatch helper for Figures 10(e)/11(e).
func withDispatch(d sched.DispatchPolicy) mutator {
	return func(cfg *core.Config) { cfg.Sched.Dispatch = d }
}
