package sched

import "testing"

// Wraparound: pushes and pops interleaved so head circles the buffer
// many times without growing, preserving FIFO order throughout.
func TestRingWraparound(t *testing.T) {
	var r ring[int]
	next, expect := 0, 0
	for i := 0; i < 5; i++ {
		r.PushBack(next)
		next++
	}
	cap0 := len(r.buf)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			r.PushBack(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if got := r.PopFront(); got != expect {
				t.Fatalf("round %d: PopFront = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	if len(r.buf) != cap0 {
		t.Fatalf("steady-state churn grew the ring: cap %d -> %d", cap0, len(r.buf))
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
}

// Growth mid-wrap: the occupied region straddles the buffer end when the
// doubling copy runs; order must survive.
func TestRingGrowWrapped(t *testing.T) {
	var r ring[int]
	for i := 0; i < 8; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 6; i++ { // advance head so the region wraps after refill
		if got := r.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	for i := 8; i < 30; i++ { // forces at least one grow while wrapped
		r.PushBack(i)
	}
	for i := 6; i < 30; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("after grow: PopFront = %d, want %d", got, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
}

// PopBack takes the newest element and composes with PopFront (the
// work-stealing shape: owner pops front, thief pops back).
func TestRingPopBack(t *testing.T) {
	var r ring[int]
	for i := 0; i < 10; i++ {
		r.PushBack(i)
	}
	if got := r.PopBack(); got != 9 {
		t.Fatalf("PopBack = %d, want 9", got)
	}
	if got := r.PopFront(); got != 0 {
		t.Fatalf("PopFront = %d, want 0", got)
	}
	if got := r.PopBack(); got != 8 {
		t.Fatalf("PopBack = %d, want 8", got)
	}
	if r.Len() != 7 {
		t.Fatalf("Len = %d, want 7", r.Len())
	}
	// Vacated slots must be zeroed so popped references are not pinned.
	var p ring[*int]
	x := new(int)
	p.PushBack(x)
	p.PopFront()
	for i := range p.buf {
		if p.buf[i] != nil {
			t.Fatal("PopFront left a live pointer in the vacated slot")
		}
	}
}

// An empty pop is a caller's bug: it panics, even on a ring whose buffer
// has room, instead of handing back a zero value and a negative length.
func TestRingEmptyPopPanics(t *testing.T) {
	for name, pop := range map[string]func(*ring[int]) int{
		"PopFront": (*ring[int]).PopFront,
		"PopBack":  (*ring[int]).PopBack,
	} {
		var r ring[int]
		r.PushBack(1)
		r.PopFront()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty ring returned; want a panic", name)
				}
			}()
			pop(&r)
		}()
	}
}
