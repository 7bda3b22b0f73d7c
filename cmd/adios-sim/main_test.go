package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simcheck"
)

// TestCoresLineLeavesOutTheDrain: past the knee the node is still busy
// when the window closes, and Run drains for 50 ms more. The cores line
// divides by the driven interval, so it must read the cycles at the
// window end — cycles read after the drain printed disp=124% here.
func TestCoresLineLeavesOutTheDrain(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"adios-sim", "-rps", "5e6", "-ms", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var line string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, "cores ") {
			line = l
		}
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		t.Fatalf("no cores line in:\n%s", stdout.String())
	}
	for _, f := range fields[1:] {
		_, pct, _ := strings.Cut(f, "=")
		v, err := strconv.ParseFloat(strings.TrimSuffix(pct, "%"), 64)
		if err != nil || v > 100 {
			t.Errorf("%s: want a utilization of at most 100%% (line %q)", f, line)
		}
	}
}

// TestRunRejectsBadInput: every flag value that used to panic deep in
// the build (-local, -ms, an out-of-range crash node), never terminate
// (-rps, an infinite -skew) or be silently bent — a node count the 64-bit node masks cannot
// hold, a negative count run as 1, a node= plan that names no node of the
// system and so injects nothing, a -skew for an app other than micro, a
// negative -block run as page striping, an -rps so small that its mean
// arrival gap overflowed the clock and flooded the node, an -rps past one
// request per cycle that ran capped at one per cycle, more -replicas than
// -memnodes run with one copy per node — must instead
// print one "adios-sim: …" line and exit 2, with nothing on stdout and
// no profile file created — an unknown -app one that lists the
// catalogue; a good invocation still runs to its report, and the sim
// line's kernel counts are numbers even when no request completed (per
// request, they used to print NaN).
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"local-zero", []string{"-local", "0"}, 2},
		{"local-negative", []string{"-local", "-1"}, 2},
		{"local-below-one-page", []string{"-local", "1e-9"}, 2},
		{"local-past-frame-index", []string{"-local", "1e10"}, 2},
		{"local-overflow", []string{"-local", "1e308"}, 2},
		{"ms-negative", []string{"-ms", "-1"}, 2},
		{"ms-overflow", []string{"-ms", "5e12"}, 2},
		{"ms-subcycle", []string{"-ms", "1e-9"}, 2},
		{"crash-node-out-of-range", []string{"-faults", "crash=1ms:node=5", "-memnodes", "2"}, 2},
		{"memnodes-past-the-mask", []string{"-memnodes", "70", "-replicas", "2", "-faults", "crash=200us:node=69"}, 2},
		{"memnodes-negative", []string{"-memnodes", "-3"}, 2},
		{"replicas-negative", []string{"-replicas", "-2"}, 2},
		{"node-restriction-out-of-range", []string{"-faults", "node=7,wr=0.1"}, 2},
		{"rps-zero", []string{"-rps", "0"}, 2},
		{"rps-negative", []string{"-rps", "-5"}, 2},
		{"rps-tiny", []string{"-rps", "1e-10", "-ms", "1"}, 2},
		{"rps-past-clock", []string{"-rps", "1e10", "-ms", "0.2"}, 2},
		{"replicas-past-nodes", []string{"-replicas", "2"}, 2},
		{"replicas-past-nodes-sharded", []string{"-replicas", "5", "-memnodes", "4"}, 2},
		{"app-unknown", []string{"-app", "nonsense"}, 2},
		{"skew-not-micro", []string{"-app", "rocksdb", "-skew", "1.2"}, 2},
		{"skew-inf", []string{"-skew", "Inf", "-ms", "2"}, 2},
		{"skew-nan", []string{"-skew", "NaN", "-ms", "2"}, 2},
		{"migrate-bw-tiny", []string{"-memnodes", "4", "-block", "4096", "-skew", "1.2", "-migrate",
			"epoch=200us,hot=4,bw=1e-300,imb=1.2,max=256,min=16", "-ms", "10", "-rps", "2600000", "-local", "0.01"}, 2},
		{"block-negative", []string{"-memnodes", "4", "-block", "-5"}, 2},
		{"migrate-one-node", []string{"-migrate", "on", "-ms", "0.2"}, 2},
		{"good", []string{"-rps", "1300000", "-ms", "1", "-faults", "crash=1ms:node=1", "-memnodes", "2", "-replicas", "2"}, 0},
		{"nothing-completed", []string{"-rps", "100", "-ms", "1"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			profile := filepath.Join(t.TempDir(), "cpu.prof")
			code := run(append([]string{"adios-sim", "-cpuprofile", profile}, tc.args...), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			if tc.code == 0 {
				if stderr.Len() != 0 || !strings.Contains(stdout.String(), "throughput") {
					t.Fatalf("good run: stderr %q, stdout:\n%s", stderr.String(), stdout.String())
				}
				if tc.name == "nothing-completed" {
					for _, want := range []string{"throughput  0 RPS\n", "sim         max_pending=", " pushes=", " skip_aheads="} {
						if out := stdout.String(); !strings.Contains(out, want) || strings.Contains(out, "NaN") {
							t.Fatalf("want %q and no NaN in:\n%s", want, out)
						}
					}
				}
				return
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "adios-sim: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Fatalf("want one 'adios-sim: …' line on stderr, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
			if _, err := os.Stat(profile); err == nil {
				t.Fatal("usage error left a CPU profile behind")
			}
			if tc.name == "app-unknown" && !strings.Contains(msg, "micro, memcached128, memcached1024, rocksdb, tpcc, faiss") {
				t.Fatalf("unknown -app does not list the catalogue: %q", msg)
			}
		})
	}
}

// TestRunFailsOnUnwritableOutput: an output file that cannot be written
// — here a full device — exits 1 with one "adios-sim: …" line on stderr.
// These runs used to exit 0: pprof drops its writer's errors, and the
// trace's write error was printed and followed by a "trace … spans" line.
func TestRunFailsOnUnwritableOutput(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, flag := range []string{"-trace", "-cpuprofile", "-memprofile"} {
		t.Run(flag, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run([]string{"adios-sim", "-ms", "1", flag, "/dev/full"}, &stdout, &stderr)
			msg := stderr.String()
			if code != 1 || !strings.HasPrefix(msg, "adios-sim: ") || strings.Count(msg, "\n") != 1 {
				t.Fatalf("exit code %d, want 1 with one 'adios-sim: …' line; stderr %q", code, msg)
			}
			if strings.Contains(stdout.String(), "\ntrace ") {
				t.Fatalf("reported a trace it could not write:\n%s", stdout.String())
			}
		})
	}
}

// TestReportPrintsEveryLayer: the report prints one line per layer the
// build has, each naming the counters the hand-built lines it replaced
// used to print. The failure detector, repairer and migrator print only
// when the run builds them; a default run has one memory node.
func TestReportPrintsEveryLayer(t *testing.T) {
	always := map[string][]string{
		"window":    {"link-util", "drops"},
		"sim":       {"max_pending", "pushes", "skip_aheads"},
		"ethernet":  {"drops"},
		"memnode0":  {"reads", "writes", "completion_errors", "timeout_errors", "stalled_us"},
		"paging":    {"faults", "evictions", "dirty_writebacks", "alloc_stalls", "dirtied", "failover_reads", "resident_frames", "frames"},
		"unithread": {"exhausted"},
		"sched":     {"drops_queue", "drops_pool", "worker_cycles", "busy_wait_cycles", "dispatcher_cycles"},
		"app":       {"mismatches"},
		"cores":     {"disp"},
	}
	crashOnly := map[string][]string{
		"memnode3": {"reads", "writes", "completion_errors", "timeout_errors", "stalled_us"},
		"health":   {"detected"},
		"repair":   {"repaired", "unrepairable", "repair_lat_p99_us"},
		"migrate":  {"pages_moved", "planned", "aborted", "deferred", "epochs", "migr_lat_p99_us"},
	}
	for _, tc := range []struct {
		name  string
		args  []string
		crash bool
	}{
		{"default", nil, false},
		{"crash-migrate", []string{"-memnodes", "4", "-replicas", "2", "-faults", "crash=1ms:node=1", "-migrate", "on"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(append([]string{"adios-sim", "-ms", "2"}, tc.args...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			lines := make(map[string]string)
			for _, l := range strings.Split(stdout.String(), "\n") {
				if layer, rest, ok := strings.Cut(l, " "); ok {
					lines[layer] = rest
				}
			}
			check := func(layers map[string][]string, want bool) {
				for layer, names := range layers {
					rest, ok := lines[layer]
					if ok != want {
						t.Fatalf("layer %s printed: %v, want %v\n%s", layer, ok, want, stdout.String())
					}
					for _, name := range names {
						if ok && !strings.Contains(rest, " "+name+"=") {
							t.Errorf("%s line has no %s=: %q", layer, name, rest)
						}
					}
				}
			}
			check(always, true)
			check(crashOnly, tc.crash)
			if strings.Contains(stdout.String(), "NaN") {
				t.Fatalf("NaN in:\n%s", stdout.String())
			}
		})
	}
}

// TestCrashTraceRecordsFailoverReads: a traced crash run over two
// replicated nodes writes the reads re-routed off the dead node as
// failover instants. The trace reaches the paging manager through the
// same wiring as the scheduler's, so a run that fails over shows it.
func TestCrashTraceRecordsFailoverReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr strings.Builder
	code := run([]string{"adios-sim", "-memnodes", "2", "-replicas", "2",
		"-faults", "crash=2ms:node=0", "-ms", "5", "-trace", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), `"cat":"failover"`); n == 0 {
		t.Fatal("the crash run's trace holds no failover instant")
	}
}

// TestMigrateTraceRecordsEveryMove: a traced migrating run writes one
// span on the migrate lane per page it moved. The trace reaches the
// migrator through the paging manager's wiring, as the failover reads'
// does.
func TestMigrateTraceRecordsEveryMove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr strings.Builder
	code := run([]string{"adios-sim", "-memnodes", "4", "-block", "16384", "-skew", "1.2",
		"-migrate", "epoch=100us,hot=2,bw=1,imb=1.1,max=128,min=4", "-ms", "10", "-trace", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var moved int
	_, rest, _ := strings.Cut(stdout.String(), "pages_moved=")
	if _, err := fmt.Sscan(rest, &moved); err != nil || moved == 0 {
		t.Fatalf("no pages_moved count, or nothing moved, in:\n%s", stdout.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), `"cat":"migrate"`); n != moved {
		t.Fatalf("the trace holds %d migrate spans, the run moved %d pages", n, moved)
	}
}

// TestCheckedRunPrintsTheSameReport: the oracles observe and never
// steer, so a run with -check prints the unchecked run's report byte for
// byte — the sim line's pushes, skip_aheads and max_pending included:
// a checked run takes the kernel's clock-advance fast path too.
func TestCheckedRunPrintsTheSameReport(t *testing.T) {
	defer simcheck.SetArmed(false)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"micro", nil},
		{"tpcc", []string{"-app", "tpcc", "-rps", "150000"}},
		{"dilos", []string{"-mode", "dilos"}},
		{"crash-migrate", []string{"-memnodes", "4", "-replicas", "2", "-faults", "crash=1ms:node=1", "-migrate", "on"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report := func(extra ...string) string {
				var stdout, stderr strings.Builder
				args := append(append([]string{"adios-sim", "-ms", "4"}, tc.args...), extra...)
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("%v: exit code %d, stderr: %s", args, code, stderr.String())
				}
				simcheck.SetArmed(false)
				return stdout.String()
			}
			plain, checked := report(), report("-check")
			if plain != checked {
				t.Fatalf("-check changed the report:\n--- unchecked\n%s--- checked\n%s", plain, checked)
			}
		})
	}
}
