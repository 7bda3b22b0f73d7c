package bench

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// runAt runs one experiment at -short -seed 1 under the given
// parallelism and returns what it measured plus the rendered table and
// CSV.
func runAt(t testing.TB, id string, parallel int) (Result, string, string) {
	t.Helper()
	var tbl, csv bytes.Buffer
	opt := Options{Short: true, Seed: 1, Out: &tbl, CSV: &csv}
	opt.SetParallel(parallel)
	return mustRun(t, id, opt), tbl.String(), csv.String()
}

// TestSweepParallelDeterministic is the fast, always-on determinism
// regression test for the runner (the digest table is the
// every-experiment one): a sweep fanned across 4 goroutines must yield a
// Result, printed table, and CSV rows byte-identical to one simulation
// at a time.
func TestSweepParallelDeterministic(t *testing.T) {
	seqRes, seqTbl, seqCSV := runAt(t, "infiniswap", 1)
	parRes, parTbl, parCSV := runAt(t, "infiniswap", 4)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("parallel sweep points differ from sequential:\nseq: %+v\npar: %+v", seqRes, parRes)
	}
	if seqTbl != parTbl {
		t.Fatalf("parallel table differs from sequential:\nseq:\n%s\npar:\n%s", seqTbl, parTbl)
	}
	if seqCSV != parCSV {
		t.Fatalf("parallel CSV differs from sequential:\nseq:\n%s\npar:\n%s", seqCSV, parCSV)
	}
	if !strings.HasPrefix(seqCSV, CSVHeader+"\n") {
		t.Fatalf("CSV output missing header row:\n%s", seqCSV)
	}
	if strings.Count(seqCSV, CSVHeader) != 1 {
		t.Fatalf("CSV header emitted more than once:\n%s", seqCSV)
	}
}

// TestLazyProbeExperimentsRaceFree runs, under the detector when it is
// on, the two experiments whose builders used to size local memory
// through a variable the app factory and a lazy probe both wrote: with
// four points in flight that was a data race. The catalogue's footprint
// is arithmetic done before any point starts.
func TestLazyProbeExperimentsRaceFree(t *testing.T) {
	if testing.Short() {
		t.Skip("two RocksDB/Memcached sweeps; run without -short")
	}
	for _, id := range []string{"abl-evict", "abl-canvas"} {
		if res, _, _ := runAt(t, id, 4); len(res.Sweeps[0]) != 2 {
			t.Fatalf("%s: want two curves, got %d", id, len(res.Sweeps[0]))
		}
	}
}

// TestPointSeedsIndependent asserts the per-point seed derivation keys
// on every component: experiment, mode, and load index.
func TestPointSeedsIndependent(t *testing.T) {
	base := pointSeed(1, "fig7a", "Adios", 0)
	for name, other := range map[string]int64{
		"experiment": pointSeed(1, "fig7b", "Adios", 0),
		"mode":       pointSeed(1, "fig7a", "DiLOS", 0),
		"load index": pointSeed(1, "fig7a", "Adios", 1),
		"base seed":  pointSeed(2, "fig7a", "Adios", 0),
	} {
		if other == base {
			t.Fatalf("changing %s did not change the derived seed", name)
		}
	}
	if pointSeed(1, "fig7a", "Adios", 0) != base {
		t.Fatal("pointSeed is not deterministic")
	}
}

// TestAllCoversRunSwitch asserts the experiments table is well formed —
// no id twice, every row runnable (a comparison or a body, every
// comparison with loads, modes and systems), the figure aliases
// present — and that All() and Run's lookup agree on it.
func TestAllCoversRunSwitch(t *testing.T) {
	seen := make(map[string]bool)
	for _, id := range All() {
		if seen[id] {
			t.Fatalf("All() lists %q twice", id)
		}
		seen[id] = true
		e, err := find(id)
		if err != nil {
			t.Errorf("All() lists %q but Run does not accept it: %v", id, err)
		}
		if len(e.cmp) == 0 && e.body == nil {
			t.Errorf("%s has neither a comparison nor a body", id)
		}
		for _, c := range e.cmp {
			if c.title == "" || len(c.loads) == 0 || len(c.modes) == 0 || len(c.systems) == 0 {
				t.Errorf("%s: incomplete comparison %q", id, c.title)
			}
		}
	}
	if len(seen) != len(experiments) {
		t.Errorf("All() lists %d ids, the table has %d rows", len(seen), len(experiments))
	}
	for _, alias := range []string{"fig2e", "fig7b", "fig7e"} {
		if !seen[alias] {
			t.Errorf("alias %q missing from All()", alias)
		}
	}
}

// BenchmarkSweepParallel measures a fixed 6-point microbenchmark sweep
// under increasing parallelism; on a multicore host the wall-clock per
// op drops roughly linearly until the core count binds.
func BenchmarkSweepParallel(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAt(b, "infiniswap", par)
			}
		})
	}
}

// TestDesignIndexListsEveryExperiment holds DESIGN.md §3's experiment
// index to the table: its ID column is All(), in order.
func TestDesignIndexListsEveryExperiment(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## 3. Experiment index")
	section, _, _ = strings.Cut(section, "\n## 4.")
	var ids []string
	for _, line := range strings.Split(section, "\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(line, "| `"), "` |"); ok && strings.HasPrefix(line, "| `") {
			ids = append(ids, id)
		}
	}
	if !slices.Equal(ids, All()) {
		t.Fatalf("DESIGN.md §3 lists\n%v\nthe experiments table has\n%v", ids, All())
	}
}
