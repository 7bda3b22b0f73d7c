package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
)

// TestArraySeedBytesPinned: NewArrayApp writes the whole array through
// the set-up view, which refuses a space with any page resident or in
// flight, so the view holds every byte. Its digest must not move — a
// wrong value in any lane of the seeding loop, or a misplaced store,
// changes it.
func TestArraySeedBytesPinned(t *testing.T) {
	for _, c := range []struct {
		size int64
		want string
	}{
		{64 << 20, "293c59a26e793c4c5e3f0a98e33a02e496d8fbd31eb5766ddafa74b4d38d2a0a"},
		{paging.PageSize, "2b273d3cbbb3b090d4ad820b3df009f13ba31f0c52733e671c1a7b716d3e218d"},
	} {
		env := sim.NewEnv(1)
		a := NewArrayApp(paging.NewManager(env, paging.DefaultConfig(1<<20)), memnode.New(1<<30), c.size)
		sum := sha256.Sum256(a.space.SetupBytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%d-byte array: seeded bytes digest %s, want %s", c.size, got, c.want)
		}
	}
}
