// Package workload defines the execution contract between applications
// and the MD scheduler: the resumable-step contract every request runs
// under (step.go), the direct-style handler signature and its context,
// the adapters that run either form on the other (blocking.go,
// direct.go), and key-popularity generators. Every app is a native
// stepper; kvs, sstable, vecdb and tpcc get their Handler from Direct.
package workload

import (
	"repro/internal/paging"
	"repro/internal/sim"
)

// Ctx is the per-request execution context handed to direct-style
// application handlers. It extends paging.Thread (so the handler's paged
// accesses fault through the system under test) with explicit compute
// charging and the cooperative-preemption probe. Every method that takes
// simulated time is the blocking face of one StepStatus.
type Ctx interface {
	paging.Thread

	// Compute charges cycles of application CPU work on the current
	// core.
	Compute(cycles sim.Time)

	// Probe is a Concord-style preemption probe at a loop boundary: under
	// a preemptive scheduler it checks the quantum (and may switch away);
	// otherwise it is free (see StepProbe).
	Probe()

	// Rand is the run's deterministic random source.
	Rand() *sim.RNG

	// CriticalEnter and CriticalExit bracket a critical section during
	// which cooperative preemption is disabled (probe checks and IPI
	// slicing are skipped). Preempting a lock holder parks it behind the
	// central queue while every contender spins — the classic convoy
	// collapse — so instrumented systems elide preemption points inside
	// critical sections; applications mark them through this interface.
	CriticalEnter()
	CriticalExit()

	// Block suspends the request until the wake function handed to
	// enqueue is invoked, waiting per the system's policy: yielding the
	// core under Adios, spinning under busy-wait systems — synchronization
	// (TPC-C's locks) that cooperates with the scheduler instead of
	// wedging a worker. enqueue is as for StepCtx.Block.
	Block(enqueue func(wake func()))
}

// Handler processes one request payload and returns the response payload
// and its wire size in bytes; where the app keeps one message record per
// request (App.NextRequest) the answer goes into payload, which it returns.
type Handler func(ctx Ctx, payload any) (resp any, respBytes int)

// App is a runnable application: it generates request payloads (the load
// generator side) and handles them (the compute node side).
type App interface {
	// Name identifies the workload in reports.
	Name() string
	// NextRequest draws a request payload and its wire size. reuse is
	// what the packet being sent last carried back (nil for a new
	// packet): when that is one of the app's message records — its
	// handler answers in the request's record — the app refills it in
	// place of boxing a new one. Ignoring reuse is always correct, and
	// the draws from rng must not depend on it.
	NextRequest(rng *sim.RNG, reuse any) (payload any, reqBytes int)
	// Handler returns the request handler.
	Handler() Handler
}

// Record returns the message record a NextRequest fills: reuse when it is
// one of the app's own (a *T), a new one otherwise.
func Record[T any](reuse any) *T {
	if m, ok := reuse.(*T); ok {
		return m
	}
	return new(T)
}

// Scratch returns *buf sized to n bytes, grown if need be: a handler's
// read buffer, kept in its request's message record and never in the app —
// a paged load can park mid-read, and another request runs meanwhile.
func Scratch(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// KeyDist generates keys in [0, n) with a given popularity distribution.
type KeyDist interface {
	Next(rng *sim.RNG) int64
	N() int64
}

// Uniform is a uniform key distribution over [0, n).
type Uniform struct{ Keys int64 }

// Next draws a uniform key.
func (u Uniform) Next(rng *sim.RNG) int64 { return rng.Int63n(u.Keys) }

// N returns the key-space size.
func (u Uniform) N() int64 { return u.Keys }

// Zipfian is a skewed key distribution with exponent S over [0, n).
type Zipfian struct {
	Keys int64
	S    float64

	z    interface{ Uint64() uint64 }
	init bool
}

// Next draws a Zipf-distributed key (most popular keys are smallest).
func (z *Zipfian) Next(rng *sim.RNG) int64 {
	if !z.init {
		z.z = rng.Zipf(z.S, uint64(z.Keys))
		z.init = true
	}
	return int64(z.z.Uint64())
}

// N returns the key-space size.
func (z *Zipfian) N() int64 { return z.Keys }
