package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInput: a flag value that used to panic in a system an
// experiment built (a crash plan naming a node that the topology, or one
// point of the experiment's own node-count sweep, does not have) or was
// silently replaced (-memnodes 0, -parallel -1) must print one
// "adios-bench: …" line and exit 2, with nothing on stdout; a good
// invocation still runs to its table.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"crash-node-out-of-range", []string{"-exp", "shards", "-short", "-faults", "crash=1ms:node=9"}, 2},
		{"crash-node-beyond-a-sweep-point", []string{"-exp", "shards", "-short", "-memnodes", "4", "-faults", "crash=1ms:node=2"}, 2},
		{"memnodes-zero", []string{"-exp", "fig2b", "-short", "-memnodes", "0"}, 2},
		{"parallel-negative", []string{"-exp", "fig2b", "-short", "-parallel", "-1"}, 2},
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
