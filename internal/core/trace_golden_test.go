package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite trace golden files")

// TestFailoverTraceGolden pins the observability contract of a crash
// run: a two-node replicated system that loses node 0 mid-measurement
// must emit its memory-node stall lanes and its failover-read instants
// in a byte-stable order. The golden in testdata/ is the rendered
// trace; any drift means the failover or fault machinery changed when
// it decided things, not just what it counted. Regenerate with
// go test ./internal/core -run TraceGolden -update.
func TestFailoverTraceGolden(t *testing.T) {
	fl := faults.Config{
		MemEvery: sim.Millis(1), MemFor: sim.Micros(40),
		CrashAt: sim.Millis(1.5), CrashNode: 0, CrashSet: true,
	}
	sys, app := buildStriped(4<<20, 7, 2, 2, 0, fl)
	rec := trace.New(0)
	sys.Mgr.Trace = rec
	sys.Run(app, 300_000, sim.Millis(1), sim.Millis(3))
	if app.Mismatches.Value() != 0 {
		t.Fatalf("data mismatches = %d", app.Mismatches.Value())
	}

	// Emit the per-memory-node stall lanes exactly as adios-sim -trace
	// does, so the golden covers the same rendering path users see.
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

	var stalls, fails []string
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindStall:
			stalls = append(stalls, fmt.Sprintf("tid=%d ts=%.3fus dur=%.3fus %s",
				ev.Tid, ev.TS, ev.Dur, ev.Name))
		case trace.KindFailover:
			if ev.Tid != trace.TidFailover {
				t.Fatalf("failover event on wrong track: tid=%d", ev.Tid)
			}
			fails = append(fails, fmt.Sprintf("ts=%.3fus %s", ev.TS, ev.Name))
		}
	}
	if len(stalls) == 0 {
		t.Fatal("no memnode stall spans recorded")
	}
	if len(fails) == 0 {
		t.Fatal("no failover-read instants recorded")
	}
	// Every failover read must route to the surviving node.
	for _, line := range fails {
		if !strings.HasSuffix(line, "-> node 1") {
			t.Fatalf("failover read routed to a non-surviving node: %s", line)
		}
	}

	const maxFails = 25
	var b strings.Builder
	fmt.Fprintf(&b, "## memnode stall lanes (%d windows)\n", len(stalls))
	for _, line := range stalls {
		fmt.Fprintln(&b, line)
	}
	fmt.Fprintf(&b, "## failover reads (first %d of %d)\n", min(maxFails, len(fails)), len(fails))
	for i, line := range fails {
		if i == maxFails {
			break
		}
		fmt.Fprintln(&b, line)
	}

	golden := filepath.Join("testdata", "trace_failover.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("failover trace diverged from golden\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
