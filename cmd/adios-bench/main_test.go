package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRunRejectsBadInput: a flag value that used to panic in a system an
// experiment built (a crash plan naming a node that the topology, or one
// point of the experiment's own node-count sweep, does not have) or was
// silently replaced or bent (-memnodes 0, or past the 64 nodes the node
// masks hold; -replicas 0; -parallel -1; a node= plan naming no node of
// the system, which injects nothing; -skew NaN, run as the native
// distribution), never terminated (-skew Inf), or an experiment id the
// table does not have — which used to be found only when the loop
// reached it, after every id before it had run to completion — must
// print one "adios-bench: …" line and exit 2, with nothing on stdout; a
// good invocation still runs to its table.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"crash-node-out-of-range", []string{"-exp", "shards", "-short", "-faults", "crash=1ms:node=9"}, 2},
		{"crash-node-beyond-a-sweep-point", []string{"-exp", "shards", "-short", "-memnodes", "4", "-faults", "crash=1ms:node=2"}, 2},
		{"memnodes-zero", []string{"-exp", "fig2b", "-short", "-memnodes", "0"}, 2},
		{"memnodes-past-the-mask", []string{"-exp", "fig2b", "-short", "-memnodes", "70", "-replicas", "2", "-faults", "crash=200us:node=69"}, 2},
		{"replicas-zero", []string{"-exp", "fig2b", "-short", "-replicas", "0"}, 2},
		{"node-restriction-out-of-range", []string{"-exp", "fig2b", "-short", "-faults", "node=7,wr=0.1"}, 2},
		{"parallel-negative", []string{"-exp", "fig2b", "-short", "-parallel", "-1"}, 2},
		{"unknown-id-after-a-good-one", []string{"-exp", "fig2b,nonsense", "-short"}, 2},
		{"id-with-a-space", []string{"-exp", " fig2b", "-short"}, 2},
		{"trailing-comma", []string{"-exp", "fig2b,", "-short"}, 2},
		{"skew-inf", []string{"-exp", "fig2a", "-short", "-skew", "Inf"}, 2},
		{"skew-nan", []string{"-exp", "fig2b", "-short", "-skew", "NaN"}, 2},
		{"good", []string{"-exp", "fig2b", "-short", "-faults", "crash=1ms:node=1", "-memnodes", "2", "-replicas", "2"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(append([]string{"adios-bench"}, tc.args...), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			if tc.code == 0 {
				if stderr.Len() != 0 || !strings.Contains(stdout.String(), "## fig2b done in") {
					t.Fatalf("good run: stderr %q, stdout:\n%s", stderr.String(), stdout.String())
				}
				return
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "adios-bench: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Fatalf("want one 'adios-bench: …' line on stderr, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestCSVHeaderOnceAcrossExperiments asserts the -csv file of several
// experiments has the header row exactly once, at the top, with the
// rows of every experiment after it in id order — rebalance's own
// schema row in its place — and that the file and stdout are the same
// at -parallel 1 and 4 apart from the wall-clock lines.
func TestCSVHeaderOnceAcrossExperiments(t *testing.T) {
	drive := func(parallel string) (stdout, csv string) {
		path := filepath.Join(t.TempDir(), "out.csv")
		var out, stderr strings.Builder
		args := []string{"adios-bench", "-exp", "fig2b,failover,rebalance,failover", "-short", "-parallel", parallel, "-csv", path}
		if code := run(args, &out, &stderr); code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.SplitAfter(out.String(), "\n") {
			if !strings.HasPrefix(l, "## ") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, ""), string(b)
	}
	out1, csv1 := drive("1")
	out4, csv4 := drive("4")
	if out1 != out4 || csv1 != csv4 {
		t.Fatalf("output differs between -parallel 1 and 4:\n%s\n---\n%s\n---\n%s\n---\n%s", out1, out4, csv1, csv4)
	}
	if !strings.HasPrefix(csv1, bench.CSVHeader+"\n") || strings.Count(csv1, bench.CSVHeader) != 1 {
		t.Fatalf("want exactly one header row, first:\n%s", csv1)
	}
	first := strings.Index(csv1, "failover,")
	own := strings.Index(csv1, "experiment,system,skew,")
	second := strings.LastIndex(csv1, "\nfailover,r1+crash50%")
	if !(first > 0 && first < own && own < second) {
		t.Fatalf("rows out of id order (failover %d, rebalance header %d, failover again %d):\n%s", first, own, second, csv1)
	}
}
