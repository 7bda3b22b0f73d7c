package paging

import (
	"runtime"
	"testing"

	"repro/internal/memnode"
	"repro/internal/sim"
)

// TestFramePoolMapsNothing: a frame holds no bytes — a page's one host
// copy is its region view — so building a 64 MiB pool maps nothing and
// grows HeapAlloc by the frames' metadata only.
func TestFramePoolMapsNothing(t *testing.T) {
	const size = 64 << 20
	var m0, m1 runtime.MemStats
	mapped := memnode.MappedBytes()
	runtime.ReadMemStats(&m0)
	m := NewManager(sim.NewEnv(1), DefaultConfig(size))
	runtime.ReadMemStats(&m1)
	if after := memnode.MappedBytes(); after != mapped {
		t.Fatalf("a %d MiB frame pool changed the mapped bytes from %d to %d", size>>20, mapped, after)
	}
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew >= size/16 {
		t.Fatalf("a %d MiB frame pool grew the heap by %d bytes", size>>20, grew)
	}
	runtime.KeepAlive(m)
}
