package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShortCSVDigestsMatchTable pins the experiments no CSV golden
// covers — SyncTx (fig9), KVS (fig10), sstable GET+SCAN with prefetch
// (fig11), TPC-C and its Block waits (fig12), IPI slicing, stealing and
// the quantum sweep (the three ablations) — by the SHA-256 of their
// -short -seed 1 CSV. testdata/short_digests.txt was recorded on the
// tree that still ran these on a goroutine per request (PR 14), so a
// digest that moves means the one execution path schedules some policy
// differently, not merely through different code. fig13 is left out:
// 201 s at -short.
func TestShortCSVDigestsMatchTable(t *testing.T) {
	if testing.Short() {
		t.Skip("the seven experiments take ~16s; run without -short")
	}
	if raceEnabled {
		t.Skip("too slow under -race; byte-identity has no concurrency to detect")
	}
	pinDefaultKnobs(t)

	f, err := os.Open(filepath.Join("testdata", "short_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, want, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		t.Run(id, func(t *testing.T) {
			var csvb strings.Builder
			opt := Options{Short: true, Seed: 1}
			opt.EnableCSV(&csvb)
			if err := Run(id, opt); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(csvb.String()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("%s -short -seed 1 CSV digest %s, table says %s\ngot:\n%s", id, got, want, csvb.String())
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
