package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestShortCSVDigestsMatchTable pins every experiment but table1 (its
// rows are host-timed) and fig13 (minutes at -short; its digests are in
// EXPERIMENTS.md) by the SHA-256 of its -short -seed 1 stdout table and
// of its CSV, as listed in testdata/short_digests.txt ("id stdout csv").
// The rows were recorded one simulation at a time and are checked on
// shortRun's runs, at SetParallel(4), so a row that holds is also that
// experiment's -parallel vs sequential byte-identity. A digest that
// moves means the table or the runner builds, seeds, drives or prints
// some point differently.
func TestShortCSVDigestsMatchTable(t *testing.T) {
	if testing.Short() {
		t.Skip("the 37 experiments take about 30 s; run without -short")
	}
	if raceEnabled {
		t.Skip("too slow under -race; TestLazyProbeExperimentsRaceFree and the shards test fan out under the detector")
	}
	f, err := os.Open(filepath.Join("testdata", "short_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pinned []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		id := fields[0]
		pinned = append(pinned, id)
		t.Run(id, func(t *testing.T) {
			_, out, csv := shortRun(t, id, Options{})
			for i, got := range []string{out, csv} {
				sum := sha256.Sum256([]byte(got))
				if hex.EncodeToString(sum[:]) != fields[1+i] {
					t.Errorf("%s -short -seed 1 %s digest %x, table says %s\ngot:\n%s",
						id, []string{"stdout", "CSV"}[i], sum, fields[1+i], got)
				}
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	unpinned := slices.DeleteFunc(All(), func(id string) bool { return slices.Contains(pinned, id) })
	if !slices.Equal(unpinned, []string{"table1", "fig13"}) {
		t.Fatalf("experiments with no digest row: %v, want only table1 and fig13", unpinned)
	}
}
