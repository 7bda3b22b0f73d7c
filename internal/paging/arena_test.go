package paging

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/memnode"
	"repro/internal/sim"
)

// TestArenaIsOffHeap: the frame arena is mapped outside the Go heap, so
// a 64 MiB pool grows HeapAlloc by its per-frame metadata only, and
// every frame starts zeroed.
func TestArenaIsOffHeap(t *testing.T) {
	const size = 64 << 20
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	m := NewManager(sim.NewEnv(1), DefaultConfig(size))
	runtime.ReadMemStats(&m1)
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew >= size/16 {
		t.Fatalf("a %d MiB frame pool grew the heap by %d bytes", size>>20, grew)
	}
	zero := make([]byte, PageSize)
	for fi := range int32(len(m.frames)) {
		if !bytes.Equal(m.frameBuf(fi), zero) {
			t.Fatalf("frame %d is not zeroed", fi)
		}
	}
}

// TestLiveRegionSurvivesReclaim: the mappings of a kept region and a
// kept manager's arena outlive any number of collections and of other
// mappings dropped and unmapped around them.
func TestLiveRegionSurvivesReclaim(t *testing.T) {
	const size = 8 << 20
	region := memnode.New(size).MustAlloc("kept", size)
	m := NewManager(sim.NewEnv(1), DefaultConfig(size))
	pattern := func(i int) byte { return byte(i*7 + i>>12) }
	for i := range region.Data {
		region.Data[i] = pattern(i)
		m.arena[i] = ^pattern(i)
	}
	for range 50 {
		churn := memnode.New(4*size).MustAlloc("churn", 4*size)
		churn.Data[0] = 1
		NewManager(sim.NewEnv(1), DefaultConfig(2*size)).arena[0] = 1
		runtime.GC()
	}
	for i := range region.Data {
		if region.Data[i] != pattern(i) || m.arena[i] != ^pattern(i) {
			t.Fatalf("byte %d changed: region %#x, arena %#x", i, region.Data[i], m.arena[i])
		}
	}
}
