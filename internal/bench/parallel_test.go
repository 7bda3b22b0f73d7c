package bench

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// TestDocsDescribeTheTree holds DESIGN.md, EXPERIMENTS.md and README.md
// to the tree they describe: every file or directory they name in
// backticks exists, every "DESIGN.md §N" a Go file or README.md cites
// is a section of DESIGN.md, and no heading is a change's diary (a PR's
// measurements go in its CHANGES.md entry).
func TestDocsDescribeTheTree(t *testing.T) {
	const root = "../../"
	// Bare file names resolve anywhere under internal/ or cmd/.
	bare := map[string]bool{}
	var goFiles []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		goFiles = append(goFiles, path)
		if rel, _ := filepath.Rel(root, path); strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") {
			bare[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(path string) bool {
		for _, dir := range []string{root, root + "internal/"} {
			if m, _ := filepath.Glob(dir + path); len(m) > 0 {
				return true
			}
		}
		return false
	}

	span := regexp.MustCompile("`([^`\n]+)`")
	lineRef := regexp.MustCompile(`:[0-9,\-]+$`)
	diary := regexp.MustCompile(`\bPR ?[0-9]+\b|(?i)what moved`)
	docs := map[string]string{}
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		b, err := os.ReadFile(root + name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
		fenced := false
		for i, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			if strings.HasPrefix(line, "#") && diary.MatchString(line) {
				t.Errorf("%s:%d: heading %q is a change's diary; its numbers belong in CHANGES.md", name, i+1, line)
			}
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				for _, tok := range strings.Fields(m[1]) {
					tok = lineRef.ReplaceAllString(strings.Trim(tok, "(),;"), "")
					tok = strings.TrimSuffix(strings.TrimPrefix(tok, "./"), "/...")
					pathLike := strings.HasPrefix(tok, "scripts/") || strings.HasPrefix(tok, "cmd/") || strings.HasPrefix(tok, "internal/")
					switch {
					case strings.HasSuffix(tok, ".go") && !strings.Contains(tok, "/"):
						if !bare[tok] {
							t.Errorf("%s:%d: `%s` is no file under internal/ or cmd/", name, i+1, tok)
						}
					case pathLike || strings.HasSuffix(tok, ".go"):
						if !exists(tok) {
							t.Errorf("%s:%d: `%s` does not exist", name, i+1, tok)
						}
					}
				}
			}
		}
	}

	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+)\.`).FindAllStringSubmatch(docs["DESIGN.md"], -1) {
		sections[m[1]] = true
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)? §([0-9]+)`)
	check := func(name, text string) {
		for _, m := range cite.FindAllStringSubmatch(text, -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", name, m[1], m[1])
			}
		}
	}
	check("README.md", docs["README.md"])
	for _, path := range goFiles {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, path)
		check(rel, string(b))
	}
}
