package unithread

import "testing"

func TestPoolAcquireReleaseAccounting(t *testing.T) {
	p := NewPool(4, 4096)
	for i := 0; i < 4; i++ {
		if !p.Acquire() {
			t.Fatalf("acquire %d failed", i)
		}
	}
	if p.Acquire() {
		t.Fatal("acquire beyond capacity succeeded")
	}
	if p.Exhausted.Value() != 1 {
		t.Fatalf("exhausted = %d", p.Exhausted.Value())
	}
	if p.InUse() != 4 || p.Peak() != 4 {
		t.Fatalf("inUse=%d peak=%d", p.InUse(), p.Peak())
	}
	p.Release()
	if p.InUse() != 3 || p.Peak() != 4 {
		t.Fatal("release accounting wrong")
	}
	if !p.Acquire() || p.InUse() != 4 || p.Exhausted.Value() != 1 {
		t.Fatal("released slot not available again")
	}
}

func TestPoolFootprintComparison(t *testing.T) {
	// The paper: a unithread needs one 4 KiB buffer per request where
	// Shinjuku needs three (payload+context, user stack, exception
	// stack) — a 66% reduction, ~1 GiB at the default pool size.
	uni := int64(DefaultPoolSize) * DefaultBufSize
	shinjuku := int64(DefaultPoolSize) * int64(3*DefaultBufSize)
	saved := shinjuku - uni
	if frac := float64(saved) / float64(shinjuku); frac < 0.66 || frac > 0.67 {
		t.Fatalf("footprint reduction = %.2f, want ~0.66", frac)
	}
	if saved != 1<<30 {
		t.Fatalf("saved bytes = %d, want 1 GiB", saved)
	}
}

func TestReleaseGuards(t *testing.T) {
	p := NewPool(1, 4096)
	p.Acquire()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release not rejected")
		}
	}()
	p.Release()
}
