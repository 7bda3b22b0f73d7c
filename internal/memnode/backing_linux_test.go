package memnode

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMapLargerThanMemory: a mapping far larger than RAM plus swap
// succeeds — the kernel's overcommit heuristic would refuse it unless it
// reserves nothing — its two ends can be written, and once dropped it is
// unmapped by the next Map. Strict accounting (vm.overcommit_memory = 2)
// ignores MAP_NORESERVE, and a 32-bit address space cannot hold 1 TiB,
// so the test skips on both (on the second, once Map has refused it).
func TestMapLargerThanMemory(t *testing.T) {
	if mode, err := os.ReadFile("/proc/sys/vm/overcommit_memory"); err == nil && strings.TrimSpace(string(mode)) == "2" {
		t.Skip("strict overcommit accounting: MAP_NORESERVE is ignored")
	}
	size := int64(1) << 40
	if size > math.MaxInt {
		// Past the address space, Map refuses the size rather than
		// mapping what is left of it as an int.
		if _, _, err := Map(size + 4096); err == nil {
			t.Fatal("Map accepted a size past the address space")
		}
		t.Skip("a 1 TiB mapping does not fit the address space")
	}
	data, b, err := Map(size)
	if err != nil {
		t.Fatal(err)
	}
	data[0], data[size-1] = 1, 2
	if data[0] != 1 || data[size-1] != 2 {
		t.Fatal("written bytes did not read back")
	}
	if live := mappedBytes(); live < size {
		t.Fatalf("%d bytes mapped, want at least %d", live, size)
	}
	runtime.KeepAlive(b) // the mapping's owner is dropped from here on
	runtime.GC()
	_, keep, err := Map(4096)
	if err != nil {
		t.Fatal(err)
	}
	if live := mappedBytes(); live >= size {
		t.Fatalf("%d bytes still mapped after the 1 TiB mapping was dropped", live)
	}
	runtime.KeepAlive(keep)
}
