// Command adios-check is the seed-swarm simulation checker: it derives
// N scenarios from a master seed — each a sampled configuration ×
// workload × fault spec — and runs every one with the simcheck
// invariant oracles armed plus the end-of-run global audit. A clean
// swarm exits 0; any violation prints the offending scenario, a
// greedily shrunk fault spec, and a one-line repro command, then exits
// 1.
//
// Examples:
//
//	adios-check -n 200 -short            # the CI sweep
//	adios-check -seed 7 -scenario 42     # replay one failure exactly
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/simcheck"
	"repro/internal/simcheck/explore"
)

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters (args[0] is the
// program name) and the exit code as its result: 0 on a clean swarm, 1
// when a scenario failed, 2 on a usage error — every rejected flag value
// and any positional argument prints one "adios-check: …" line and runs
// nothing, so a mistyped sweep cannot pass by exploring no scenario.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "adios-check: "+format+"\n", a...)
		return 2
	}
	seed := fs.Int64("seed", 1, "master seed of the swarm")
	n := fs.Int("n", 100, "number of scenarios to explore")
	scenario := fs.Int("scenario", -1, "run only this scenario index (repro mode)")
	short := fs.Bool("short", false, "shrink measurement windows for CI budgets")
	verbose := fs.Bool("v", false, "print every scenario, not just failures")
	noShrink := fs.Bool("noshrink", false, "skip fault-spec shrinking on failure")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *n < 1 {
		return usage("-n must be at least 1, got %d", *n)
	}
	if *scenario < -1 {
		return usage("-scenario must be a scenario index (or -1 for the whole swarm), got %d", *scenario)
	}

	// Arm before any system is built: each sim.Env latches its checked
	// flag at construction.
	simcheck.SetArmed(true)

	lo, hi := 0, *n
	if *scenario >= 0 {
		lo, hi = *scenario, *scenario+1
	}
	failures := 0
	for i := lo; i < hi; i++ {
		sc := explore.Generate(*seed, i, *short)
		res := explore.Run(sc)
		if !res.Failed() {
			if *verbose {
				fmt.Fprintf(stdout, "ok   %s (completed %d)\n", sc, res.Completed)
			}
			continue
		}
		failures++
		fmt.Fprintf(stdout, "FAIL %s\n", sc)
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "     violation: %v\n", v)
		}
		if !*noShrink {
			min := explore.Shrink(sc)
			if min.Faults.String() != sc.Faults.String() {
				fmt.Fprintf(stdout, "     shrunk faults: [%s]\n", specOrNone(min.Faults.String()))
			}
		}
		fmt.Fprintf(stdout, "     %s\n", explore.ReproLine(*seed, sc))
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "adios-check: %d of %d scenarios failed (seed %d)\n", failures, hi-lo, *seed)
		return 1
	}
	fmt.Fprintf(stdout, "adios-check: %d scenarios clean (seed %d)\n", hi-lo, *seed)
	return 0
}

func specOrNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
