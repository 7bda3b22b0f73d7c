package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInput: a swarm size or scenario index that selects no
// scenario, and any stray positional argument, used to print "0
// scenarios clean" (or ignore the argument) and exit 0; each must
// instead print one "adios-check: …" line and exit 2, with nothing on
// stdout. A good invocation still runs its scenarios.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"n-zero", []string{"-n", "0"}, 2},
		{"n-negative", []string{"-n", "-5"}, 2},
		{"scenario-below-minus-one", []string{"-scenario", "-2"}, 2},
		{"positional", []string{"-n", "2", "200"}, 2},
		{"good", []string{"-n", "2", "-short", "-seed", "1"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(append([]string{"adios-check"}, tc.args...), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			if tc.code == 0 {
				if stderr.Len() != 0 || stdout.String() != "adios-check: 2 scenarios clean (seed 1)\n" {
					t.Fatalf("good run: stderr %q, stdout:\n%s", stderr.String(), stdout.String())
				}
				return
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "adios-check: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Fatalf("want one 'adios-check: …' line on stderr, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}
