package memnode

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// mappedBytes returns the bytes currently mapped, reclaimed or not.
func mappedBytes() int64 {
	mappings.Lock()
	defer mappings.Unlock()
	return mappings.live
}

// TestAllocRejectsNegativeSize: a negative size is an error on a node
// and on a cluster, charges nothing and leaves the name free; a zero
// size is an empty region with no mapping behind it.
func TestAllocRejectsNegativeSize(t *testing.T) {
	for _, c := range []struct {
		name  string
		alloc func() (Allocator, func() int64)
	}{
		{"node", func() (Allocator, func() int64) { n := New(1 << 20); return n, func() int64 { return n.allocated } }},
		{"cluster4", func() (Allocator, func() int64) { c := newCluster4(t, 1<<20); return c, c.Allocated }},
	} {
		for _, size := range []int64{-5, -1, -4097, -1 << 40} {
			a, allocated := c.alloc()
			if r, err := a.Alloc("x", size); err == nil || !strings.Contains(err.Error(), "negative") {
				t.Fatalf("%s: Alloc(x, %d) = %v, %v; want a negative-size error", c.name, size, r, err)
			}
			if allocated() != 0 || a.Region("x") != nil {
				t.Fatalf("%s: Alloc(x, %d) charged %d or registered the region", c.name, size, allocated())
			}
			if _, err := a.Alloc("x", 4096); err != nil {
				t.Fatalf("%s: name not free after Alloc(x, %d): %v", c.name, size, err)
			}
		}
		a, allocated := c.alloc()
		before := mappedBytes()
		r, err := a.Alloc("empty", 0)
		if err != nil {
			t.Fatalf("%s: Alloc(empty, 0): %v", c.name, err)
		}
		if len(r.Data) != 0 || r.backing != nil || mappedBytes() != before || allocated() != 0 {
			t.Fatalf("%s: zero-size region has %d bytes, backing %v, mapped %d → %d, charged %d",
				c.name, len(r.Data), r.backing, before, mappedBytes(), allocated())
		}
		if a.Region("empty") != r {
			t.Fatalf("%s: zero-size region not registered", c.name)
		}
	}
}

// TestRegionBackingIsOffHeap: a region's bytes are mapped outside the
// Go heap, so a 256 MiB Alloc barely moves HeapAlloc, and the kernel
// hands them out zeroed.
func TestRegionBackingIsOffHeap(t *testing.T) {
	const size = 256 << 20
	n := New(size)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r := n.MustAlloc("big", size)
	runtime.ReadMemStats(&m1)
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("a %d MiB region grew the heap by %d bytes", size>>20, grew)
	}
	if int64(len(r.Data)) != size || !allZero(r.Data) {
		t.Fatalf("region of %d bytes is not %d zero bytes", len(r.Data), size)
	}
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	var zero [64 << 10]byte
	for len(b) > 0 {
		k := min(len(b), len(zero))
		if !bytes.Equal(b[:k], zero[:k]) {
			return false
		}
		b = b[k:]
	}
	return true
}

// TestDroppedBackingIsUnmapped: regions nothing references are unmapped
// by a later Map, and Map's own collections keep that prompt — 32
// systems of 64 MiB built and dropped one after another never leave
// more than four systems' worth mapped.
func TestDroppedBackingIsUnmapped(t *testing.T) {
	const size = 64 << 20
	for i := range 32 {
		r := newCluster4(t, size).MustAlloc("sys", size)
		r.Data[0], r.Data[size-1] = byte(i), byte(i)
		if live := mappedBytes(); live > 4*size {
			t.Fatalf("system %d: %d MiB mapped, want at most %d", i, live>>20, 4*size>>20)
		}
	}
}
