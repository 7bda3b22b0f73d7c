package workload

import (
	"testing"
	"unsafe"

	"repro/internal/unithread"
)

// The StepFrame is a request's light context: its size must stay pinned
// to the paper's 80-byte figure (Table 1), represented in this repo by
// unithread.LightContext.
func TestStepFrameSize(t *testing.T) {
	if got, want := unsafe.Sizeof(StepFrame{}), unsafe.Sizeof(unithread.LightContext{}); got != want {
		t.Fatalf("StepFrame is %d bytes; must match unithread.LightContext (%d)", got, want)
	}
	if unsafe.Sizeof(StepFrame{}) != 80 {
		t.Fatalf("StepFrame is %d bytes; the paper's light context is 80", unsafe.Sizeof(StepFrame{}))
	}
}
