// Command adios-sim runs one system × workload × load operating point
// and reports throughput, latency percentiles, link utilization, fault
// statistics, and (optionally) the latency CDF.
//
// Examples:
//
//	adios-sim -mode adios -app micro -rps 1300000
//	adios-sim -mode dilos -app rocksdb -rps 300000 -ms 200
//	adios-sim -mode adios -app tpcc -rps 120000 -local 0.1 -cdf
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/migrate"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

var modes = map[string]core.Mode{
	"adios":      core.Adios,
	"dilos":      core.DiLOS,
	"dilos-p":    core.DiLOSP,
	"hermit":     core.Hermit,
	"infiniswap": core.Infiniswap,
}

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters (args[0] is the
// program name) and the exit code as its result: 0 on success, 1 when a
// file cannot be written, 2 on a usage error. The flags become a
// core.Config, which Validate judges, and a rate and skew, which
// loadgen.CheckRate and workload.CheckSkew judge; only the rules no
// library owns (mode, app, -skew on micro only, -local before it is
// converted, -ms) are written here. Every rejected flag value prints one
// "adios-sim: …" line and builds nothing, and the first file that
// cannot be written prints one such line.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "adios-sim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		if code == 0 {
			fmt.Fprintf(stderr, "adios-sim: %v\n", err)
		}
		return 1
	}
	modeName := fs.String("mode", "adios", "system: adios|dilos|dilos-p|hermit|infiniswap")
	appName := fs.String("app", "micro", "workload: micro|memcached128|memcached1024|rocksdb|tpcc|faiss")
	rps := fs.Float64("rps", 1_000_000, "offered load, requests/second")
	local := fs.Float64("local", 0.20, "local DRAM as a fraction of the working set")
	ms := fs.Float64("ms", 0, "measurement window in simulated ms (0 = auto)")
	seed := fs.Int64("seed", 1, "simulation seed")
	memnodes := fs.Int("memnodes", 1, "memory nodes the backing store is striped across")
	replicasN := fs.Int("replicas", 1, "copies of every page, on distinct memory nodes (1 = unreplicated)")
	faultSpec := fs.String("faults", "", "fault plan (see EXPERIMENTS.md), e.g. 'node=0,mem=2ms:400us'")
	migrateSpec := fs.String("migrate", "", "page-migration plan (see EXPERIMENTS.md): off|on|'epoch=50us,hot=8,...'")
	skew := fs.Float64("skew", 0, "Zipfian key-skew exponent for the micro workload (0 = uniform)")
	block := fs.Int64("block", 0, "shard placement block size in pages (0 = page striping)")
	cdf := fs.Bool("cdf", false, "print the e2e latency CDF")
	traceOut := fs.String("trace", "", "write a chrome://tracing / Perfetto trace of the run to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	check := fs.Bool("check", false, "arm the simcheck invariant oracles for this run")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	mode, ok := modes[strings.ToLower(*modeName)]
	if !ok {
		return usage("unknown mode %q", *modeName)
	}
	// The catalogue knows the app's footprint before anything is built.
	entry, err := bench.AppNamed(*appName, false)
	if err != nil {
		return usage("%v", err)
	}
	if *skew != 0 && !strings.EqualFold(*appName, "micro") {
		return usage("-skew applies to the micro workload only")
	}
	// Checked as a float: past the int64 range the conversion below
	// is undefined.
	size := entry.Footprint
	if err := paging.CheckFramePool(*local * float64(size)); err != nil {
		return usage("-local %v of the %d-byte working set: %v", *local, size, err)
	}
	// The run lasts the window plus a quarter of it for warm-up, counted
	// in whole cycles: a longer one overflows the clock, a window under a
	// cycle measures nothing. 0 sizes the window from -rps.
	if c := *ms * float64(sim.Millis(1)); *ms != 0 && !(c >= 1 && c*1.25 <= float64(sim.MaxSpecTime)) {
		return usage("-ms %v: want 0 (auto) or a window of at least one cycle whose warm-up plus window stay within %v", *ms, sim.MaxSpecTime)
	}
	cfg := core.Preset(mode, int64(*local*float64(size)))
	cfg.Seed = *seed
	cfg.MemNodes = *memnodes
	cfg.Replicas = *replicasN
	cfg.Block = *block
	if *faultSpec != "" {
		if cfg.Faults, err = faults.ParseSpec(*faultSpec); err != nil {
			return usage("%v", err)
		}
	}
	if *migrateSpec != "" {
		if cfg.Migrate, err = migrate.ParseSpec(*migrateSpec); err != nil {
			return usage("%v", err)
		}
	}
	// Reject what would otherwise panic deep in the build or never
	// terminate.
	for _, err := range []error{loadgen.CheckRate(*rps), workload.CheckSkew(*skew), cfg.Validate()} {
		if err != nil {
			return usage("%v", err)
		}
	}

	if *check {
		// Must precede system construction: each environment latches its
		// checked flag when it is built.
		simcheck.SetArmed(true)
	}
	// pprof drops its writer's errors, so each profile is built in
	// memory and written with one checked write.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_, err := f.Write(prof.Bytes())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				code = fail(err)
			}
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			var prof bytes.Buffer
			runtime.GC() // materialize the retained heap
			if err := pprof.WriteHeapProfile(&prof); err != nil {
				code = fail(err)
			} else if err := os.WriteFile(path, prof.Bytes(), 0o666); err != nil {
				code = fail(err)
			}
		}()
	}

	sys := core.NewSystem(cfg)
	app := entry.Build(sys)
	if *skew > 0 {
		app.(*workload.ArrayApp).SetSkew(*skew)
	}
	if w, ok := app.(interface{ WarmCache() }); ok {
		w.WarmCache()
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New(0)
		sys.Trace = rec
	}
	sys.StartApp(app)

	window := *ms
	if window == 0 {
		window = min(max(60_000/(*rps/1000), 20), 2000) // ~60K samples
	}
	warm, measure := sim.Millis(window/4), sim.Millis(window)
	// Core cycles at the window end, read the way Run reads the link
	// utilization: the post-window drain must not count.
	workers := sys.Sched.Workers()
	busy := make([]int64, len(workers))
	var dispCycles int64
	sys.Env.At(warm+measure, func() {
		for i, w := range workers {
			busy[i] = w.BusyCycles()
		}
		dispCycles = sys.Sched.DispatcherCycles()
	})
	res := sys.Run(app, *rps, warm, measure)

	fmt.Fprintf(stdout, "system      %s\n", mode)
	fmt.Fprintf(stdout, "workload    %s (%.1f MiB working set, %.0f%% local)\n",
		app.Name(), float64(size)/(1<<20), *local*100)
	fmt.Fprintf(stdout, "offered     %.0f RPS for %.0f ms (+%.0f ms warm-up)\n", *rps, window, window/4)
	fmt.Fprintf(stdout, "throughput  %.0f RPS\n", res.TputK*1000)
	fmt.Fprintf(stdout, "latency     p50=%.1fus p99=%.1fus p99.9=%.1fus mean=%.1fus\n",
		res.P50us, res.P99us, res.P999us, res.MeanUs)
	// The window's link utilization and drops, then every layer's
	// counters over the whole run, drain included: one line per layer
	// the build has, in name order, each begun on the line before's end.
	fmt.Fprintf(stdout, "window      link-util=%.1f%% drops=%d", res.LinkUtil*100, res.Drops)
	snap, layer := sys.Stats.Snapshot(), ""
	for _, name := range slices.Sorted(maps.Keys(snap)) {
		l, field, _ := strings.Cut(name, ".")
		if l != layer {
			fmt.Fprintf(stdout, "\n%-11s", l)
			layer = l
		}
		fmt.Fprintf(stdout, " %s=%s", field, strconv.FormatFloat(snap[name], 'f', -1, 64))
	}
	fmt.Fprintln(stdout)
	// Core utilization over the driven interval (warm-up + measurement).
	elapsed := float64(warm + measure)
	fmt.Fprintf(stdout, "cores      ")
	for i, w := range workers {
		fmt.Fprintf(stdout, " w%d=%.0f%%", w.ID(), float64(busy[i])/elapsed*100)
	}
	fmt.Fprintf(stdout, " disp=%.0f%%\n", float64(dispCycles)/elapsed*100)
	for _, class := range slices.Sorted(maps.Keys(res.Gen.ByClass)) {
		h := res.Gen.ByClass[class]
		fmt.Fprintf(stdout, "class %-9s n=%-8d p50=%.1fus p99=%.1fus p99.9=%.1fus\n",
			class, h.Count(), sim.Time(h.P50()).Micros(), sim.Time(h.P99()).Micros(),
			sim.Time(h.P999()).Micros())
	}
	if rec != nil {
		// One lane per memory node that had stall windows, so fault
		// blast radius lines up against the worker timelines.
		for i, node := range sys.Nodes {
			ws := node.StallWindows()
			if len(ws) == 0 {
				continue
			}
			rec.NameTrack(3000+i, fmt.Sprintf("memnode %d", i))
			for _, w := range ws {
				rec.Span(trace.KindStall, 3000+i, "stall", sim.Time(w[0]), sim.Time(w[1]), nil)
			}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		err = rec.WriteJSON(f, cfg.Sched.Workers, cfg.Sched.Dispatchers)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace       %d spans -> %s (open in chrome://tracing)\n", rec.Len(), *traceOut)
	}
	if *cdf {
		fmt.Fprintln(stdout, "latency_us cdf")
		points := res.Gen.E2E.CDF()
		step := len(points)/40 + 1
		for i := 0; i < len(points); i += step {
			fmt.Fprintf(stdout, "%.1f %.4f\n", sim.Time(points[i].Value).Micros(), points[i].Fraction)
		}
	}
	return 0
}
