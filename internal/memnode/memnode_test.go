package memnode

import (
	"strings"
	"testing"
)

func TestAllocAndCapacity(t *testing.T) {
	n := New(1 << 20)
	r, err := n.Alloc("a", 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 512<<10 {
		t.Fatalf("size = %d", r.Size())
	}
	if _, err := n.Alloc("a", 16); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := n.Alloc("b", 600<<10); err == nil {
		t.Fatal("over-capacity alloc accepted")
	}
	if _, err := n.Alloc("b", 512<<10); err != nil {
		t.Fatalf("exact-fit alloc rejected: %v", err)
	}
	if n.allocated != n.capacity {
		t.Fatalf("allocated = %d, capacity = %d", n.allocated, n.capacity)
	}
	if n.Region("a") != r || n.Region("missing") != nil {
		t.Fatal("region lookup broken")
	}
}

func TestSliceViewsBacking(t *testing.T) {
	n := New(1 << 16)
	r := n.MustAlloc("r", 8192)
	s := r.Slice(4096, 16)
	s[0] = 0xAB
	if r.Data[4096] != 0xAB {
		t.Fatal("slice is not a view of the backing store")
	}
}

func TestSliceBoundsChecked(t *testing.T) {
	n := New(1 << 16)
	r := n.MustAlloc("reg", 8192)
	// In-bounds accesses, including zero-length at the end, must pass.
	r.Slice(0, 8192)
	r.Slice(8192, 0)
	for _, c := range []struct {
		name   string
		off, n int64
	}{
		{"past end", 8000, 4096},
		{"negative offset", -1, 16},
		{"negative length", 0, -1},
		{"offset past end", 8193, 0},
	} {
		func() {
			defer func() {
				msg, ok := recover().(string)
				if !ok {
					t.Fatalf("%s: no panic", c.name)
				}
				for _, want := range []string{"reg", "8192"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("%s: panic %q missing %q", c.name, msg, want)
					}
				}
			}()
			r.Slice(c.off, c.n)
		}()
	}
}

func TestPauseWindowsAndAvailableAt(t *testing.T) {
	n := New(1 << 16)
	if at := n.AvailableAt(100); at != 100 {
		t.Fatalf("no-stall AvailableAt = %d", at)
	}
	n.Pause(100, 200)
	n.Pause(150, 260) // overlaps: merges into [100, 260)
	n.Pause(260, 300) // adjacent: extends to [100, 300)
	n.Pause(500, 600)
	for _, c := range []struct{ t, want int64 }{
		{50, 50}, {100, 300}, {299, 300}, {300, 300}, {450, 450},
		{500, 600}, {599, 600}, {700, 700},
	} {
		if at := n.AvailableAt(c.t); at != c.want {
			t.Fatalf("AvailableAt(%d) = %d, want %d", c.t, at, c.want)
		}
	}
	if n.Stalls.Value() == 0 {
		t.Fatal("stall counter not bumped")
	}
	if n.StalledTime() != 300 {
		t.Fatalf("StalledTime = %d, want 300", n.StalledTime())
	}
}

func TestPauseOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New(16)
	n.Pause(500, 600)
	n.Pause(100, 200)
}

func TestMustAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(16).MustAlloc("big", 1<<20)
}
