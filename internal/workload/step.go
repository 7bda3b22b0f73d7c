package workload

import (
	"encoding/binary"

	"repro/internal/paging"
	"repro/internal/sim"
)

// This file defines the resumable-step contract every request executes
// under. The paper's cost argument (§3.2, Table 1) is that a unithread
// needs only an 80-byte light context because it suspends at known call
// boundaries; the scheduler makes that literal: a request is a
// StepHandler the worker core's state machine calls, each call running
// to the next point where simulated time must pass and returning what it
// needs as a StepStatus, with the continuation parked in a StepFrame.
// Time passes between Step calls, never inside one, so what a fault does
// while the fetch is in flight and whether a probe preempts are the
// scheduler's policies, met in one place (DESIGN.md §11 has the table).
// It is the one form a request handler takes.

// StepStatus is the outcome of one StepHandler.Step call.
type StepStatus int

const (
	// StepDone: the request finished; resp/respBytes are valid.
	StepDone StepStatus = iota
	// StepFault: the step hit a non-resident page (a TryPage returned !ok,
	// or it named the page with Fault). The scheduler drives the fault and
	// re-invokes Step once the page is resident; the frame must let the
	// handler resume from (or idempotently repeat up to) that access.
	StepFault
	// StepCompute: the step declares cycles of application CPU work. The
	// scheduler charges them on the carrying core — sliced at quantum
	// boundaries under IPI preemption — and re-invokes Step, whose frame
	// must already point past the charge. Zero cycles pass no time and
	// cross no event.
	StepCompute
	// StepProbe: a Concord-style preemption probe, placed at loop
	// boundaries. A probe-preemptive scheduler charges the check and,
	// once the quantum is spent, switches the request out and re-queues
	// it; otherwise it is free. The fault path contains no probes — the
	// paper's explanation for why preemption cannot mitigate busy-wait
	// HOL blocking (§2.3).
	StepProbe
	// StepBlock: the step registered a wake with StepCtx.Block and must
	// not continue until it is invoked. The scheduler waits per its
	// policy — yields the core, or spins on it.
	StepBlock
)

// StepFrame is the explicit continuation of a request between Step
// calls: a program counter plus nine spill words. Its size is pinned to
// the paper's 80-byte light context (unithread.LightContext) by
// TestStepFrameSize — the frame IS the light context.
type StepFrame struct {
	PC uint64    // handler-defined phase counter
	W  [9]uint64 // handler-defined spill slots
}

// StepCtx is the execution context handed to Step: the carrying core's
// queue pairs (asynchronous prefetches are issued there), the run's
// random source, critical sections, and the non-blocking half of
// everything that takes simulated time. Nothing in it blocks.
type StepCtx interface {
	paging.QPSource
	Rand() *sim.RNG

	// CriticalEnter and CriticalExit bracket a critical section, inside
	// which no probe or IPI preempts: a lock holder parked behind the
	// central queue while its contenders spin is a convoy collapse.
	CriticalEnter()
	CriticalExit()

	// TryPage is the one paged access: the bytes of page vpn if it is
	// resident, valid until Step returns; on a miss it records the
	// faulting page and returns ok=false — the handler must then return
	// StepFault. A store writes through s.DirtyPage(vpn) after a TryPage
	// that hit, never through the returned view: the bytes are the same,
	// but only DirtyPage sets the dirty bit that gets the store written
	// back. An access that spans
	// pages keeps its progress in the frame (TryLoad, TryStore), so that
	// the re-run after a fault on its second page leaves the first alone.
	TryPage(s *paging.Space, vpn int64) (page []byte, ok bool)
	// Fault names the page of the StepFault about to be returned, for an
	// access made some other way than TryPage.
	Fault(s *paging.Space, vpn int64)

	// ProbeFree reports whether a StepProbe returned now would cost
	// nothing, so the handler may skip returning it.
	ProbeFree() bool
	// Block hands enqueue the request's wake function, and the handler
	// returns StepBlock (a lock wait, say, which yields or spins per the
	// system's policy). enqueue must register wake somewhere a later
	// event or request will find it; it may be invoked at most once, from
	// any context but enqueue itself.
	Block(enqueue func(wake func()))
}

// StepHandler is the resumable-step form of a request handler. Begin
// initializes the frame, which arrives zeroed, for a fresh request; Step
// advances the request to the next point where it needs the scheduler and
// reports which (cycles is valid with StepCompute, resp/respBytes with
// StepDone). After a StepFault the re-run's first paged access must be
// the one that faulted (the paging layer accounts it as the tail of the
// same fault, not a fresh hit — see Space.TryPage). If the fetch was
// abandoned the scheduler calls Abort with the *paging.FetchError
// instead — the simulated SIGBUS: the request is over, and the handler
// releases whatever the frame refers to.
type StepHandler interface {
	Begin(f *StepFrame, payload any)
	Step(ctx StepCtx, f *StepFrame, payload any) (resp any, respBytes int, cycles sim.Time, st StepStatus)
	Abort(f *StepFrame, err error)
}

// Page is a record's page as one phase of a step accesses it: Open makes
// the first access, the one that may miss (the handler returns
// StepFault), and the first read or write after it is that access; each
// later one is a TryPage of its own, which hits — within a step no time
// passes and a hit evicts nothing. Fields must lie on the record's page.
type Page struct {
	ctx    StepCtx
	s      *paging.Space
	off    int64  // the record's offset in the space
	opened []byte // Open's view of the page
	used   bool   // Open's access has been taken
}

// Open makes the first access to the page holding the record at off and
// reports whether it hit, filling p in place (returning a Page costs more).
func (p *Page) Open(ctx StepCtx, s *paging.Space, off int64) (ok bool) {
	*p = Page{ctx: ctx, s: s, off: off}
	p.opened, ok = ctx.TryPage(s, off>>paging.PageShift)
	return ok
}

func (p *Page) field(f int64) []byte {
	b := p.opened
	if p.used {
		b, _ = p.ctx.TryPage(p.s, p.off>>paging.PageShift)
	}
	p.used = true
	return b[p.off&(paging.PageSize-1)+f:]
}

func (p *Page) dirty(f int64) []byte {
	p.field(f)
	return p.s.DirtyPage(p.off >> paging.PageShift)[p.off&(paging.PageSize-1)+f:]
}

// U32 and U64 read a little-endian field and SetU32 and SetU64 write
// one: one access each.
func (p *Page) U32(f int64) uint32       { return binary.LittleEndian.Uint32(p.field(f)) }
func (p *Page) U64(f int64) uint64       { return binary.LittleEndian.Uint64(p.field(f)) }
func (p *Page) SetU32(f int64, v uint32) { binary.LittleEndian.PutUint32(p.dirty(f), v) }
func (p *Page) SetU64(f int64, v uint64) { binary.LittleEndian.PutUint64(p.dirty(f), v) }

// TryLoad copies len(buf) bytes at off into buf, a page at a time through
// ctx.TryPage. *done is the access's progress word in the caller's frame:
// on a miss the bytes already copied are parked there and the handler
// returns StepFault; the re-run resumes at the page that faulted. It is
// zero again once the read is complete.
func TryLoad(ctx StepCtx, s *paging.Space, off int64, buf []byte, done *uint64) bool {
	for n := int64(*done); n < int64(len(buf)); {
		at := off + n
		page, ok := ctx.TryPage(s, at>>paging.PageShift)
		if !ok {
			*done = uint64(n)
			return false
		}
		n += int64(copy(buf[n:], page[at&(paging.PageSize-1):]))
	}
	*done = 0
	return true
}

// TryStore is the store counterpart of TryLoad: every page is faulted in
// on a miss (write-allocate), dirtied, and written through its dirty view.
func TryStore(ctx StepCtx, s *paging.Space, off int64, data []byte, done *uint64) bool {
	for n := int64(*done); n < int64(len(data)); {
		at := off + n
		if _, ok := ctx.TryPage(s, at>>paging.PageShift); !ok {
			*done = uint64(n)
			return false
		}
		n += int64(copy(s.DirtyPage(at >> paging.PageShift)[at&(paging.PageSize-1):], data[n:]))
	}
	*done = 0
	return true
}
