// Command benchmark is the repository's performance ledger: six
// fixed-load workloads measured on both clocks — the simulated one the
// paper's claims live on and the host one our cost lives on — with
// per-layer attribution gathered from outside the program, through the
// public API only. README.md in this directory has the protocol, the
// metric glossary and the prediction table.
//
//	go run ./benchmark -seed 1              all six workloads, full report
//	go run ./benchmark -workload micro-adios -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object
// (correct, attempted, failed, metrics): the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. Without it the command
// re-executes itself once per workload, so heap state and the resident
// high-water mark are per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// measureProcs is the GOMAXPROCS a workload is measured under. One
// simulation runs at a time and hands control between goroutines all the
// time; with a second P idle, every hand-off wakes a spinning thread
// that finds nothing, which costs a third of the run and most of its
// rep-to-rep noise. One P is also what each point of a -parallel sweep
// gets.
const measureProcs = 1

func main() {
	workloadName := flag.String("workload", "", "run one workload in this process (default: all, one process each)")
	seed := flag.Int64("seed", 1, "simulation seed; the workload's inputs are a function of it")
	seconds := flag.Float64("seconds", 10, "nominal host seconds of a workload's timed repetitions; buys a fixed number of them")
	trace := flag.Int("trace", 1, "1 adds the traced repetitions, the CPU profile and the layer rigs; 0 measures end to end only")
	out := flag.String("out", filepath.Join(".bench_build", "report.json"), "file the report of an all-workloads run is written to")
	reportTo := flag.String("report", "", "with -workload: also write the workload's full report to this file")
	spans := flag.String("spans", "", "with -workload and -trace 1: dump the traced repetitions' request spans to this CSV file")
	compare := flag.Bool("compare", false, "compare two reports: -compare BASE.json NEW.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare BASE.json NEW.json")
			os.Exit(2)
		}
		var regressed bool
		if regressed, err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case flag.NArg() != 0:
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	case *workloadName != "":
		opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, spans: *spans}
		err = runOne(*workloadName, opt, *reportTo)
	default:
		err = runAll(*seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its metrics,
// the result line last.
func runOne(name string, opt options, reportTo string) error {
	sp := findSpec(name)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(measureProcs)
	w, err := measure(sp, opt)
	if err != nil {
		return err
	}
	w.print(os.Stdout, sp)
	if reportTo != "" {
		if err := writeJSON(reportTo, w); err != nil {
			return err
		}
	}
	res := w.result(opt.trace)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runAll runs every workload in a process of its own, one at a time,
// and writes the combined report.
func runAll(seed int64, seconds float64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	rep := newReport(seed)
	fmt.Println("#", rep.header())
	part := out + ".part"
	defer os.Remove(part)
	for i := range specs {
		cmd := exec.Command(self,
			"-workload", specs[i].name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-report", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", specs[i].name, err)
		}
		var w workloadReport
		if err := readJSON(part, &w); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Println("# report written to", out)
	return nil
}
