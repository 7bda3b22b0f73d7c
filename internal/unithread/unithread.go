// Package unithread implements the paper's unithread buffer pool (§3.2):
// pre-allocated single-buffer request contexts where the packet payload,
// the 80-byte execution context, and the universal stack share one
// buffer (Figure 4). The pool bounds concurrency: when it is exhausted,
// the system must drop requests, which is what produces the throughput
// stall under overload.
//
// Buffers are physically materialized lazily (the default pool of
// 131,072 × 4 KiB would otherwise pin 512 MiB of host memory per
// simulated system), but accounting — capacity, occupancy, peak — always
// reflects the full pre-allocated pool, which is what the paper's memory
// footprint comparison (66 % smaller than Shinjuku's three-buffer layout)
// is about.
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

// Layout describes where the regions of Figure 4 live inside a buffer.
type Layout struct {
	PayloadOff int // packet payload starts at 0 (after the stripped header)
	CtxOff     int // context follows the MTU-sized payload area
	StackOff   int // universal stack occupies the remainder
	StackSize  int
}

// LayoutFor returns the buffer layout for the given buffer and MTU.
func LayoutFor(bufSize, mtu int) Layout {
	return Layout{
		PayloadOff: 0,
		CtxOff:     mtu,
		StackOff:   mtu + ContextSize,
		StackSize:  bufSize - mtu - ContextSize,
	}
}

// Buffer is one unithread's buffer. Data is materialized on first use
// and recycled through the pool.
type Buffer struct {
	Index int
	Data  []byte
	pool  *Pool
}

// Pool is the fixed-capacity unithread buffer pool.
type Pool struct {
	capacity int
	bufSize  int
	free     []*Buffer
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
	return &Pool{capacity: capacity, bufSize: bufSize}
}

// Capacity returns the pre-allocated buffer count.
func (p *Pool) Capacity() int { return p.capacity }

// BufSize returns the per-buffer size in bytes.
func (p *Pool) BufSize() int { return p.bufSize }

// InUse returns the number of buffers currently acquired.
func (p *Pool) InUse() int { return p.inUse }

// Peak returns the high-water mark of concurrent buffers in use.
func (p *Pool) Peak() int { return p.peak }

// FootprintBytes returns the pool's pre-allocated memory footprint: the
// quantity the universal-stack design shrinks by 66 % relative to a
// Shinjuku-style three-buffer layout.
func (p *Pool) FootprintBytes() int64 { return int64(p.capacity) * int64(p.bufSize) }

// Acquire takes a buffer from the pool, or reports failure if the pool
// is exhausted.
func (p *Pool) Acquire() (*Buffer, bool) {
	if p.inUse >= p.capacity {
		p.Exhausted.Inc()
		return nil, false
	}
	p.inUse++
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b, true
	}
	return &Buffer{Index: p.inUse - 1, Data: make([]byte, p.bufSize), pool: p}, true
}

// Release returns a buffer to the pool.
func (p *Pool) Release(b *Buffer) {
	if b == nil || b.pool != p {
		panic("unithread: releasing foreign buffer")
	}
	if p.inUse <= 0 {
		panic("unithread: release without acquire")
	}
	p.inUse--
	p.free = append(p.free, b)
}
