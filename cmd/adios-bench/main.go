// Command adios-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	adios-bench -exp fig7a            # one experiment at full resolution
//	adios-bench -exp all -short       # the whole suite, CI-sized
//	adios-bench -exp all -parallel 8  # fan experiments and sweep points
//	adios-bench -list                 # list experiment ids
//
// Experiment ids follow DESIGN.md's per-experiment index (table1, fig2a
// … fig13, plus the abl-* ablations and the infiniswap extension); -list
// prints them all.
//
// With -faults SPEC (see EXPERIMENTS.md for the grammar, e.g.
// "wr=0.01,link=20ms:200us:4"), every built system runs under the given
// deterministic fault plan; -fault-seed replays the same workload under
// a different fault schedule. Without -faults nothing is injected and
// output is byte-identical to builds without fault support.
//
// With -memnodes N, every built system stripes its backing store across
// N memory nodes, each behind its own RDMA link (the shards experiment
// additionally sweeps node count itself). The default of 1 reproduces
// the paper's single-memory-node topology byte-for-byte.
//
// With -replicas R, every page lives on R distinct memory nodes and
// survives node crashes injected with the crash= fault clause (the
// failover experiment sweeps R itself). The default of 1 keeps the
// unreplicated store and is byte-identical to builds without
// replication support.
//
// With -parallel N (default GOMAXPROCS), up to N simulations run
// concurrently: the operating points inside each sweep fan out across
// goroutines, and under -exp all whole experiments do too. Each point
// still runs on its own deterministic simulator with a seed derived from
// (-seed, experiment, system, load index), and results are reassembled
// in order, so the printed tables and CSV rows are byte-identical to
// -parallel 1 (only the "## … done in" wall-clock values differ).
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// whole invocation (all experiments, including -parallel fan-out). The
// last line, "## peak sim.max_pending=N", is the pending-event
// high-water mark across every measured point — the depth the event
// scheduler actually had to absorb. See EXPERIMENTS.md ("Profiling a
// run").
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/simcheck"
)

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters (args[0] is the
// program name) and the exit code as its result: 0 on success, 1 when a
// file cannot be written, 2 on a usage error. The flags become a
// bench.Options, which Validate judges for every id before anything
// runs; -exp being required is the one rule written here. Every
// rejected flag value or experiment id prints one "adios-bench: …" line
// and builds nothing, and the first file that cannot be written prints
// one such line.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "adios-bench: "+format+"\n", a...)
		return 2
	}
	exp := fs.String("exp", "", "experiment id, comma-separated ids, or 'all'")
	short := fs.Bool("short", false, "reduced sweeps and dataset sizes")
	seed := fs.Int64("seed", 1, "simulation seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	doPlot := fs.Bool("plot", false, "render ASCII charts of each sweep")
	csvPath := fs.String("csv", "", "also write measured points as CSV to this file")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max concurrently-running simulations (1 = sequential)")
	faultSpec := fs.String("faults", "", "fault plan, e.g. 'wr=0.01,rnr=0.001:5us,link=20ms:200us:4,mem=25ms:100us'")
	faultSeed := fs.Int64("fault-seed", 0, "salt for the fault schedule (replays the workload under different faults)")
	memnodes := fs.Int("memnodes", 1, "memory nodes every built system stripes its backing store across (1 = the paper's topology)")
	replicasN := fs.Int("replicas", 1, "copies of every page, on distinct memory nodes (1 = unreplicated)")
	migrateSpec := fs.String("migrate", "", "page-migration plan for every built system, e.g. 'on' or 'epoch=50us,hot=8'")
	skewS := fs.Float64("skew", 0, "Zipfian key-skew exponent for apps that support one (0 = native distribution)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	check := fs.Bool("check", false, "arm the simcheck invariant oracles for every built system")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *check {
		// Must precede system construction: each environment latches its
		// checked flag when it is built.
		simcheck.SetArmed(true)
	}

	if *list {
		for _, id := range bench.All() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *exp == "" {
		return usage("-exp required (use -list for ids, or 'all')")
	}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = bench.All()
	}
	opt := bench.Options{Short: *short, Seed: *seed, Plot: *doPlot, Parallel: *parallel,
		MemNodes: *memnodes, Replicas: *replicasN, Skew: *skewS}
	var err error
	if *faultSpec != "" || *faultSeed != 0 {
		if opt.Faults, err = faults.ParseSpec(*faultSpec); err != nil {
			return usage("%v", err)
		}
		if *faultSeed != 0 {
			opt.Faults.Seed = *faultSeed
		}
	}
	if *migrateSpec != "" {
		if opt.Migrate, err = migrate.ParseSpec(*migrateSpec); err != nil {
			return usage("%v", err)
		}
	}
	// Found now, not when the loop reaches it hours into a sweep, nor in
	// the first system an experiment builds at too few nodes for the
	// options (some sweep the count themselves).
	for _, id := range ids {
		if err := opt.Validate(id); err != nil {
			return usage("%v", err)
		}
	}

	// fail reports the first fatal error; the deferred stop still
	// flushes the profiles, so a truncated run leaves a readable profile
	// behind.
	fail := func(err error) int {
		if code == 0 {
			fmt.Fprintf(stderr, "adios-bench: %v\n", err)
		}
		return 1
	}
	stop, err := bench.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stop(); err != nil {
			code = fail(err)
		}
	}()

	opt.SetParallel(*parallel)
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
		csvFile = f
	}

	// The one run loop: up to -parallel experiments side by side (their
	// points share opt's limiter, keeping total simulation concurrency
	// bounded by -parallel), each writing its tables and CSV rows to
	// private buffers that are flushed to stdout and the CSV file in id
	// order as soon as every earlier experiment has finished, so the
	// combined output is the same at any -parallel.
	type result struct {
		out, csv bytes.Buffer
		took     time.Duration
		done     bool
	}
	var (
		results = make([]result, len(ids))
		mu      sync.Mutex // guards everything below, done, and the flush itself
		flushed int
		peak    int64
		failed  error // the first run or CSV write error
		header  = []byte(bench.CSVHeader + "\n")
		headed  bool
	)
	bench.Each(len(ids), make(chan struct{}, *parallel), func(i int) {
		r := &results[i]
		o := opt
		o.Out = &r.out
		if csvFile != nil {
			o.CSV = &r.csv
		}
		start := time.Now()
		res, err := bench.Run(ids[i], o)
		r.took = time.Since(start)

		mu.Lock()
		defer mu.Unlock()
		if err != nil && failed == nil {
			failed = err // ids and plan were checked above: a bug, not input
		}
		for _, sweep := range res.Sweeps {
			for _, pts := range sweep {
				for _, p := range pts {
					peak = max(peak, int64(p.Stats["sim.max_pending"]))
				}
			}
		}
		r.done = true
		for ; flushed < len(ids) && results[flushed].done; flushed++ {
			f := &results[flushed]
			stdout.Write(f.out.Bytes())
			if csvFile != nil {
				rows := f.csv.Bytes()
				// Each run heads its own rows; the file keeps the first.
				if bytes.HasPrefix(rows, header) {
					if headed {
						rows = rows[len(header):]
					}
					headed = true
				}
				if _, err := csvFile.Write(rows); err != nil && failed == nil {
					failed = err
				}
			}
			fmt.Fprintf(stdout, "## %s done in %s\n", ids[flushed], f.took.Round(time.Millisecond))
		}
	})
	if failed != nil {
		return fail(failed)
	}
	fmt.Fprintf(stdout, "## peak sim.max_pending=%d\n", peak)
	return 0
}
