// Package bench regenerates every table and figure of the paper's
// evaluation (§2 and §5). An experiment is a value — a row of the
// experiments table (experiments.go), with an id (table1, fig2a …
// fig13) matching DESIGN.md's index — over the app catalogue (apps.go),
// and Run hands its points to the one point runner in this file. Run
// prints the rows/series the paper plots and returns them for
// programmatic assertions (the repository-root benchmarks).
package bench

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/paging"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options controls sweep resolution, measurement windows, and the
// settings every system an experiment builds starts from. A copy is
// private to the Run it is passed to: nothing here is shared but the
// limiter SetParallel installs.
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
	// drops) for external plotting; see CSVHeader for the schema. The
	// header row precedes the first such row of a Run; a caller that
	// joins several runs into one file keeps only the first.
	CSV io.Writer
	// Seed for all runs (0 means 1).
	Seed int64
	// Parallel is the maximum number of simulations run concurrently
	// (measured operating points; each builds its own core.System and
	// sim.Env, so points are independent). 0 or 1 runs one at a time.
	// Results are reassembled in deterministic order, so tables, CSV
	// rows, and the returned Result are identical at any value. Prefer
	// SetParallel, which also installs the shared limiter.
	Parallel int

	// Faults is the fault plan of every system an experiment builds
	// (the CLI's -faults flag). The zero value injects nothing, leaving
	// every experiment byte-identical to a build without fault support.
	// The resilience experiment uses it as the base plan of its
	// fault-rate sweep; the failover experiment adds its own crash to it
	// and refuses a plan that carries one (Validate).
	Faults faults.Config
	// MemNodes is the memory-node count of every built system (the
	// CLI's -memnodes flag); Run fills 0 with 1, the paper's topology,
	// byte-identical to a build without sharding support. The shards
	// experiment overrides it per point for its node-count sweep; failover
	// and rebalance build every point at 4 nodes.
	MemNodes int
	// Replicas is the page replication factor of every built system
	// (the CLI's -replicas flag); Run fills 0 with 1, the paper's
	// unreplicated store, byte-identical to a build without replication
	// support. The failover experiment overrides it per point for its R
	// sweep.
	Replicas int
	// Migrate is the page-migration plan of every built system (the
	// CLI's -migrate flag). The zero value builds no migrator, leaving
	// every experiment byte-identical to a build without migration
	// support. The rebalance experiment overrides it per point for its
	// on/off comparison.
	Migrate migrate.Config
	// Skew is the Zipfian key-skew exponent of every built app (the
	// CLI's -skew flag), refused by an experiment whose apps take none.
	// Zero keeps each app's native distribution and draws the identical
	// RNG stream as a build without skew support.
	Skew float64

	// sem bounds concurrently-running simulations across every Run
	// sharing these Options (including copies — channels are
	// references), so experiments run side by side stay ≤ Parallel
	// together. Created by SetParallel; Run makes one of its own when
	// nil.
	sem chan struct{}
}

// CSVHeader is the schema of the CSV rows emitted by every experiment
// but rebalance, which has its own; see EXPERIMENTS.md for the column
// descriptions.
const CSVHeader = "experiment,system,offered_KRPS,tput_KRPS,p50_us,p99_us,p999_us,link_util,drops"

// SetParallel allows up to n concurrent simulations and installs the
// shared limiter, so Runs that share these Options stay bounded by n
// overall.
func (o *Options) SetParallel(n int) {
	o.Parallel = max(n, 1)
	o.sem = make(chan struct{}, o.Parallel)
}

// windows returns warmup and measure durations for a given offered load,
// targeting enough samples for a stable P99.9.
func (o *Options) windows(rps float64) (warmup, measure sim.Time) {
	target := 80_000.0 // samples
	if o.Short {
		target = 15_000
	}
	ms := min(max(target/rps*1000, 20), 3000)
	return sim.Millis(ms / 4), sim.Millis(ms)
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

	// Aborts counts requests failed by fetch-retry exhaustion (zero
	// unless a fault plan is active), out of Completed finished ones.
	Aborts    int64
	Completed int64

	// Stats is the system's registry snapshot taken after the run
	// (core.System.Stats): every layer's counters by name.
	Stats map[string]float64

	// Per-class percentiles (e.g. GET/SCAN), when the workload is
	// classified.
	Class map[string]ClassLat
}

// GoodputK is throughput discounted by the aborted-request fraction.
func (p Point) GoodputK() float64 {
	if p.Completed == 0 {
		return p.TputK
	}
	return p.TputK * (float64(p.Completed-p.Aborts) / float64(p.Completed))
}

// ClassLat is per-request-class latency.
type ClassLat struct {
	P50us  float64
	P99us  float64
	P999us float64
	Count  int64
}

// Series is the measured points of one table, by the label of the curve
// (or row group) they belong to, each curve in the order it was planned.
type Series map[string][]Point

// Result is what one experiment measured: everything it printed, as
// values.
type Result struct {
	// Sweeps holds the points of every batch the experiment handed to
	// the runner, in order: one per printed sweep table (fig10 and
	// shards have two), and the lone point of a single-run figure.
	Sweeps []Series
	// Breakdown is the percentile rows of Figure 2(c)/7(c).
	Breakdown []BreakdownRow
}

// experiment is one row of the experiments table: declarative
// comparisons, or a body that plans its own points.
type experiment struct {
	id string
	// nodes is the smallest memory-node count the experiment builds at
	// when it sets the count of its own points, which Options.Validate
	// judges the options at; 0 for the rest, which build every point at
	// Options.MemNodes.
	nodes int
	// crashes marks an experiment that crashes a node of its own: a
	// plan's crash or rejoin cannot run under it.
	crashes bool
	// skew marks an experiment whose every point builds the
	// microbenchmark's array app with Options.Skew applied. The others
	// refuse a skew: their apps take none, or (rebalance) they sweep it
	// themselves.
	skew bool
	cmp  []comparison
	body func(r *run)
}

// comparison is the paper's one evaluation shape as data: every system
// under every mode, swept over offered load, printed as one table. A
// curve is labelled by its system, or by its mode when the system has no
// label (one system compared across modes).
type comparison struct {
	title string
	// loads is the full-resolution offered-load list in KRPS; -short
	// thins it to every other entry, or uses short when that is set.
	loads, short []float64
	// classes, when set, selects the per-class table (Figure 11 style).
	classes []string
	modes   []core.Mode
	systems []system
}

// system says how a point's system under test is built: which app, how
// much local memory as a fraction of its footprint (0 = the paper's
// 20 %), and what the preset is adjusted by.
type system struct {
	label string
	app   func(short bool) App
	local float64
	cfg   func(*core.Config)
	// fullOnly drops the system from a comparison's -short sweep.
	fullOnly bool
}

// on is the one unlabelled system of a comparison across modes.
func on(app func(short bool) App) []system { return []system{{app: app}} }

// builder constructs a fresh system+app for a mode. Every measured point
// uses a fresh build so points are independent and deterministic.
type builder func(mode core.Mode, seed int64) (*core.System, workload.App)

// builder resolves s under these options: the app at the -short or full
// size, local memory from its footprint, the options' settings, then the
// system's own adjustment on top.
func (o *Options) builder(s system) builder {
	app := s.app(o.Short)
	if s.local == 0 {
		s.local = 0.20
	}
	return func(mode core.Mode, seed int64) (*core.System, workload.App) {
		cfg := core.Preset(mode, int64(s.local*float64(app.Footprint)))
		cfg.Seed = seed
		cfg.Faults = o.Faults
		cfg.MemNodes = o.MemNodes
		cfg.Replicas = o.Replicas
		cfg.Migrate = o.Migrate
		if s.cfg != nil {
			s.cfg(&cfg)
		}
		sys := core.NewSystem(cfg)
		a := app.Build(sys)
		if w, ok := a.(interface{ WarmCache() }); ok {
			w.WarmCache()
		}
		if o.Skew > 0 { // Validate admits a skew only where every app takes one
			a.(interface{ SetSkew(float64) }).SetSkew(o.Skew)
		}
		sys.StartApp(a)
		return sys, a
	}
}

// point is one simulation an experiment plans: what to build, how hard
// to drive it, which curve the result joins, and which random stream it
// draws.
type point struct {
	label string
	// key and idx pick the stream: the seed is derived from (base seed,
	// experiment id, key, idx), so every point draws independently of
	// the order points run in. An empty key runs under the base seed
	// itself (the single-run figures).
	key  string
	idx  int
	b    builder
	mode core.Mode
	rps  float64
	// observe, when set, is shown the built system before it is driven
	// (with the warm-up length); what it returns is shown the result.
	observe func(sys *core.System, warm sim.Time) func(core.RunResult)
	// drive, when set, replaces System.Run as what turns the built
	// system into a result (abl-transport's reliable half, which must
	// reach the load generator Run keeps to itself).
	drive func(sys *core.System, app workload.App, rps float64, warm, meas sim.Time) core.RunResult
}

// pointSeed derives a per-point seed from the base seed, the experiment
// id, the point's key (usually its mode), and its load index, so every
// operating point draws an independent random stream and parallel
// execution order cannot matter. The mix is FNV-1a over the strings
// followed by a splitmix64 finalizer.
func pointSeed(base int64, exp, key string, idx int) int64 {
	h := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, s := range [2]string{exp, key} {
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

// Each runs f(0) … f(n-1), each on a goroutine of its own that is
// started, in index order, once a slot of limit is free, and returns
// when all have. It is the one fan-out: points inside an experiment
// share their Options' limiter, and a CLI running several experiments
// side by side bounds those with a limiter of its own (an experiment
// holds no simulation slot while it waits for its points).
func Each(n int, limit chan struct{}, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		limit <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-limit; wg.Done() }()
			f(i)
		}()
	}
	wg.Wait()
}

// StartProfiles begins the requested profiles (a path of "" asks for
// none) and returns the function that writes them, which reports the
// first error. pprof drops its writer's errors, so each profile is built
// in memory and written with one checked write. Both CLIs take their
// -cpuprofile and -memprofile through it.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	var prof bytes.Buffer
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(&prof); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs [3]error // write, close, heap profile: the first one counts
		if cpu != nil {
			pprof.StopCPUProfile()
			_, errs[0] = cpu.Write(prof.Bytes())
			errs[1] = cpu.Close()
		}
		if memPath != "" {
			prof.Reset()
			runtime.GC() // materialize the retained heap
			if errs[2] = pprof.WriteHeapProfile(&prof); errs[2] == nil {
				errs[2] = os.WriteFile(memPath, prof.Bytes(), 0o666)
			}
		}
		return cmp.Or(errs[:]...)
	}, nil
}

// run is one experiment in progress: its options, its id (which salts
// every point's seed, so different experiments draw independent
// streams), and what it has measured so far.
type run struct {
	Options
	id     string
	headed bool // the CSVHeader row has been written
	res    Result
}

// measure runs every point — concurrently as far as the limiter allows,
// each on its own core.System and sim.Env — and returns the results in
// point order and by label; ordered reassembly plus per-point seeds make
// the output bit-identical at any parallelism.
func (r *run) measure(pts []point) ([]Point, Series) {
	out := make([]Point, len(pts))
	Each(len(pts), r.sem, func(i int) { out[i] = r.measureOne(pts[i]) })
	series := make(Series)
	for i, p := range pts {
		series[p.label] = append(series[p.label], out[i])
	}
	r.res.Sweeps = append(r.res.Sweeps, series)
	return out, series
}

// measureOne is the one place a built system is driven and reduced to
// numbers.
func (r *run) measureOne(p point) Point {
	seed := r.Seed
	if p.key != "" {
		seed = pointSeed(seed, r.id, p.key, p.idx)
	}
	sys, app := p.b(p.mode, seed)
	warm, meas := r.windows(p.rps)
	var after func(core.RunResult)
	if p.observe != nil {
		after = p.observe(sys, warm)
	}
	var res core.RunResult
	if p.drive != nil {
		res = p.drive(sys, app, p.rps, warm, meas)
	} else {
		res = sys.Run(app, p.rps, warm, meas)
	}
	if after != nil {
		after(res)
	}
	pt := Point{
		Mode:      p.mode.String(),
		OfferedK:  res.OfferedK,
		TputK:     res.TputK,
		P50us:     res.P50us,
		P99us:     res.P99us,
		P999us:    res.P999us,
		LinkUtil:  res.LinkUtil,
		Drops:     res.Drops,
		Aborts:    res.Aborts,
		Completed: res.Completed,
		Stats:     sys.Stats.Snapshot(),
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

// compare plans, measures and prints one comparison.
func (r *run) compare(c comparison) {
	loads := r.loads(c.loads)
	if r.Short && c.short != nil {
		loads = c.short
	}
	var pts []point
	for _, sys := range c.systems {
		if sys.fullOnly && r.Short {
			continue
		}
		b := r.builder(sys)
		for _, m := range c.modes {
			label := sys.label
			if label == "" {
				label = m.String()
			}
			for i, k := range loads {
				pts = append(pts, point{label: label, key: m.String(), idx: i, b: b, mode: m, rps: k * 1000})
			}
		}
	}
	_, series := r.measure(pts)
	r.printSweep(c.title, series, c.classes)
}

func (r *run) printf(format string, args ...any) { fmt.Fprintf(r.Out, format, args...) }

// printSweep renders a sweep as aligned rows — the all-requests columns,
// or with classes the per-class latency columns of Figure 11 — plus
// optional chart (the P99.9 of all requests, or of the first class) and
// CSV output.
func (r *run) printSweep(title string, series Series, classes []string) {
	r.printf("\n# %s\n%-11s %9s %9s", title, "system", "offered_K", "tput_K")
	if len(classes) == 0 {
		r.printf(" %10s %10s %10s %6s %9s", "p50_us", "p99_us", "p99.9_us", "util%", "drops")
	}
	for _, c := range classes {
		r.printf(" %9s %10s %11s", c+"_p50", c+"_p99", c+"_p99.9")
	}
	r.printf("\n")
	curves := make(map[string][]plot.XY)
	for _, name := range slices.Sorted(maps.Keys(series)) {
		for _, p := range series[name] {
			r.printf("%-11s %9.4g %9.4g", name, p.OfferedK, p.TputK)
			tail := p.P999us
			if len(classes) == 0 {
				r.printf(" %10.1f %10.1f %10.1f %6.1f %9d", p.P50us, p.P99us, p.P999us, p.LinkUtil*100, p.Drops)
			} else {
				tail = p.Class[classes[0]].P999us
			}
			for _, c := range classes {
				cl := p.Class[c]
				r.printf(" %9.1f %10.1f %11.1f", cl.P50us, cl.P99us, cl.P999us)
			}
			r.printf("\n")
			curves[name] = append(curves[name], plot.XY{X: p.TputK, Y: tail})
		}
	}
	r.emitCSV(title, series)
	if r.Plot {
		what := ""
		if len(classes) > 0 {
			what = classes[0] + " "
		}
		plot.Render(r.Out, title+" — "+what+"P99.9 vs throughput", curves,
			plot.Options{LogY: true, XLabel: "tput KRPS", YLabel: "p99.9 us"})
	}
}

// emitCSV appends the series' points to the CSV sink under the title's
// slug (what precedes its colon), after the CSVHeader row the first time
// this run writes one.
func (r *run) emitCSV(title string, series Series) {
	if r.CSV == nil {
		return
	}
	if !r.headed {
		r.headed = true
		fmt.Fprintln(r.CSV, CSVHeader)
	}
	slug, _, _ := strings.Cut(title, ":")
	slug = strings.ReplaceAll(strings.TrimSpace(slug), ",", ";")
	for _, name := range slices.Sorted(maps.Keys(series)) {
		for _, p := range series[name] {
			fmt.Fprintf(r.CSV, "%s,%s,%.0f,%.0f,%.2f,%.2f,%.2f,%.4f,%d\n",
				slug, name, p.OfferedK, p.TputK,
				p.P50us, p.P99us, p.P999us, p.LinkUtil, p.Drops)
		}
	}
}

// find returns the table row with that id.
func find(id string) (experiment, error) {
	for _, e := range experiments {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// All lists every experiment id Run accepts, in DESIGN.md order.
func All() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Validate reports whether Run can run experiment id under these
// options: id names an experiment, Seed is not 0 (Run reads 0 as unset),
// Parallel is at least 1, Skew passes workload.CheckSkew and is 0 unless
// the experiment's apps take one, an experiment that crashes a node
// itself takes no crash from the plan, and the systems it builds pass
// core.Config.Validate at the node count they are built at — the
// experiment's own when the table sets one (MemNodes must still be a
// count a system can have), MemNodes otherwise. Run calls it after
// filling zero values; a CLI calls it on its raw flags, for every id,
// to report a usage error before anything is simulated.
func (o Options) Validate(id string) error {
	e, err := find(id)
	if err != nil {
		return err
	}
	if o.Parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1 (1 = sequential), got %d", o.Parallel)
	}
	if o.Seed == 0 {
		return fmt.Errorf("-seed 0 would run seed 1 (0 means unset): pick a non-zero seed")
	}
	if err := workload.CheckSkew(o.Skew); err != nil {
		return err
	}
	if o.Skew != 0 && !e.skew {
		return fmt.Errorf("experiment %s takes no -skew: its apps have no key skew, or it sweeps skew itself", id)
	}
	if e.crashes && o.Faults.CrashSet {
		return fmt.Errorf("experiment %s crashes a node itself; the plan may not", id)
	}
	// The frame pool is the app's, judged when it is built; any valid
	// one stands in for it here.
	cfg := core.Preset(core.Adios, paging.PageSize)
	cfg.MemNodes = o.MemNodes
	if e.nodes > 0 {
		if err := cfg.Validate(); err != nil {
			return err
		}
		cfg.MemNodes = e.nodes
	}
	cfg.Replicas, cfg.Faults, cfg.Migrate = o.Replicas, o.Faults, o.Migrate
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("experiment %s: %v", id, err)
	}
	return nil
}

// filled returns o with the zero values Run reads as unset filled: Seed
// 0 is 1, and MemNodes and Replicas 0 are 1, the paper's topology.
func (o Options) filled() Options {
	o.Seed, o.MemNodes, o.Replicas = cmp.Or(o.Seed, 1), cmp.Or(o.MemNodes, 1), cmp.Or(o.Replicas, 1)
	return o
}

// Run executes the experiment with the given id, prints its tables to
// opt.Out and returns what it measured. It is the only way an experiment
// runs, so a point's seed never depends on who asked. It fills the zero
// values of opt, then returns Validate's error for options it rejects.
func Run(id string, opt Options) (Result, error) {
	if opt.sem == nil {
		opt.SetParallel(opt.Parallel)
	}
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	opt = opt.filled()
	if err := opt.Validate(id); err != nil {
		return Result{}, fmt.Errorf("bench: %v", err)
	}
	e, _ := find(id)
	r := &run{Options: opt, id: id}
	for _, c := range e.cmp {
		r.compare(c)
	}
	if e.body != nil {
		e.body(r)
	}
	return r.res, nil
}
