// Package unithread implements the paper's unithread buffer pool (§3.2):
// pre-allocated single-buffer request contexts where the packet payload,
// the 80-byte execution context, and the universal stack share one
// buffer (Figure 4). The pool bounds concurrency: when it is exhausted,
// the system must drop requests, which is what produces the throughput
// stall under overload.
//
// The model needs the pool for its accounting — capacity, occupancy and
// peak — so that is all Pool keeps: a slot is a count, and the record
// that occupies it is the scheduler's sched.Request, which carries the
// payload and the 80-byte context and needs no stack.
package unithread

import (
	"fmt"
	"unsafe"

	"repro/internal/stats"
)

// ContextSize is the unithread context footprint: one argument register,
// callee-saved integer registers (rbx, rbp, r12–r15), rip, rsp, and the
// mxcsr/fpucw control words — 80 bytes (Table 1).
const ContextSize = int(unsafe.Sizeof(LightContext{}))

// ShinjukuContextSize is the ucontext_t footprint Table 1 compares
// against: 968 bytes.
const ShinjukuContextSize = int(unsafe.Sizeof(FullContext{}))

// DefaultPoolSize is the paper's pre-allocated unithread count.
const DefaultPoolSize = 131072

// DefaultBufSize is the per-unithread buffer: MTU-sized payload area,
// context, and universal stack in a single 4 KiB buffer.
const DefaultBufSize = 4096

// Pool is the fixed-capacity unithread buffer pool.
type Pool struct {
	capacity int
	inUse    int
	peak     int

	// Exhausted counts acquisition failures (each one is a dropped
	// request under load).
	Exhausted stats.Counter
}

// NewPool returns a pool of capacity buffers of bufSize bytes each.
func NewPool(capacity, bufSize int) *Pool {
	if capacity <= 0 || bufSize < ContextSize {
		panic(fmt.Sprintf("unithread: bad pool config %d×%d", capacity, bufSize))
	}
	return &Pool{capacity: capacity}
}

// InUse returns the number of buffers currently acquired.
func (p *Pool) InUse() int { return p.inUse }

// Peak returns the high-water mark of concurrent buffers in use.
func (p *Pool) Peak() int { return p.peak }

// Acquire takes a slot, or reports failure if the pool is exhausted.
func (p *Pool) Acquire() bool {
	if p.inUse >= p.capacity {
		p.Exhausted.Inc()
		return false
	}
	p.inUse++
	p.peak = max(p.peak, p.inUse)
	return true
}

// Release returns a slot. The holder remembers that it holds one
// (sched.Request.slot), which is what keeps a release from happening
// twice; the pool can only see one that nothing acquired.
func (p *Pool) Release() {
	if p.inUse <= 0 {
		panic("unithread: release without acquire")
	}
	p.inUse--
}
