package unithread

import (
	"testing"
	"unsafe"
)

func TestContextSizesMatchTable1(t *testing.T) {
	if got := unsafe.Sizeof(LightContext{}); got != 80 {
		t.Fatalf("LightContext size = %d, want 80 (Table 1)", got)
	}
	if got := unsafe.Sizeof(FullContext{}); got != 968 {
		t.Fatalf("FullContext size = %d, want 968 (Table 1)", got)
	}
	if ContextSize != 80 || ShinjukuContextSize != 968 {
		t.Fatalf("ContextSize %d / ShinjukuContextSize %d disagree with Table 1", ContextSize, ShinjukuContextSize)
	}
	ratio := float64(unsafe.Sizeof(FullContext{})) / float64(unsafe.Sizeof(LightContext{}))
	if ratio < 12.0 || ratio > 12.2 {
		t.Fatalf("size ratio = %.2f, paper reports 12.1x", ratio)
	}
}

func TestSwitchRoundTrip(t *testing.T) {
	var a, b LightContext
	b.RSP, b.RBP, b.Arg = 0x1000, 0x2000, 42
	SwitchLight(&a, &b)
	if theCPU.gregs[4] != 0x1000 || theCPU.gregs[5] != 0x2000 || theCPU.gregs[7] != 42 {
		t.Fatal("light switch did not load target state")
	}
	var c LightContext
	SwitchLight(&c, &a)
	if c.RSP != 0x1000 || c.RBP != 0x2000 {
		t.Fatal("light switch did not save current state")
	}

	var fa, fb FullContext
	fb.Gregs[4] = 0x3000
	fb.FpState[100] = 0xAB
	SwitchFull(&fa, &fb)
	if theCPU.gregs[4] != 0x3000 || theCPU.fpstate[100] != 0xAB {
		t.Fatal("full switch did not load target state")
	}
	var fc FullContext
	SwitchFull(&fc, &fb)
	if fc.Gregs[4] != 0x3000 || fc.FpState[100] != 0xAB {
		t.Fatal("full switch did not save current state")
	}
}

// The Table 1 benchmarks live in the repository root's bench_test.go so
// they are part of the per-figure harness; these are package-local
// smoke benchmarks.
func BenchmarkSwitchLight(b *testing.B) {
	var a, c LightContext
	for i := 0; i < b.N; i++ {
		SwitchLight(&a, &c)
		SwitchLight(&c, &a)
	}
}

func BenchmarkSwitchFull(b *testing.B) {
	var a, c FullContext
	for i := 0; i < b.N; i++ {
		SwitchFull(&a, &c)
		SwitchFull(&c, &a)
	}
}
