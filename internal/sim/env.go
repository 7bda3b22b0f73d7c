package sim

import (
	"fmt"

	"repro/internal/simcheck"
)

// event is a scheduled callback. Events with equal times fire in schedule
// order (seq), which is what makes runs deterministic. Process start and
// wake-up events — the overwhelmingly common case — carry the target
// process in proc instead of a closure in fn, keeping the hottest
// scheduling path allocation-free.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// Env is a simulation environment: a virtual clock, an event queue (a
// hierarchical timing wheel, see wheel.go), and the machinery that runs
// processes one at a time. An Env is not safe for concurrent use; all
// interaction must happen from the goroutine that calls Run or from
// processes the Env itself is driving.
type Env struct {
	now Time
	q   wheel
	seq uint64
	rng *RNG

	stopped   bool
	nProcs    int   // live (not yet terminated) processes, for leak detection
	suspended *Coro // intrusive list of suspended coroutines, for teardown
	freeCoros *Coro // pooled coroutines

	// until is the bound of the run in progress: dispatch (proc.go) stops
	// there whichever goroutine it runs on.
	until Time

	stats KernelStats

	// Invariant-oracle state (check.go). checked is latched at
	// construction from simcheck.On(), so arming must happen before the
	// environment is built; blocked is the waiter registry for the
	// lost-wakeup audit; lastAt/lastSeq back the dispatch-order oracle.
	checked bool
	blocked map[Waiter]string
	lastAt  Time
	lastSeq uint64
}

// NewEnv returns an environment with its clock at zero, seeded with seed.
func NewEnv(seed int64) *Env {
	e := &Env{rng: NewRNG(seed)}
	if simcheck.On() {
		e.checked = true
		e.blocked = make(map[Waiter]string)
	}
	return e
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Rand returns the run's deterministic random source.
func (e *Env) Rand() *RNG { return e.rng }

// At schedules fn to run at absolute time at. Scheduling in the past is a
// bug in the caller and panics.
func (e *Env) At(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.q.push(event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d cycles from now.
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Stop terminates the event loop after the current event completes.
// Remaining events are discarded; parked processes are abandoned (their
// coroutines are unwound and exit).
func (e *Env) Stop() { e.stopped = true }

// Run executes events until the clock would pass until, the queue drains,
// or Stop is called. It returns the final simulated time.
func (e *Env) Run(until Time) Time {
	e.loop(until)
	if e.now < until && !e.stopped {
		e.now = until
	}
	e.releaseParked()
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Env) RunAll() Time {
	e.loop(maxTime)
	e.releaseParked()
	return e.now
}

// loop dispatches events up to until, switching to each process that
// dispatch returns. If it is left by a panic or a Goexit — raised by a
// callback, or by a process body and handed over by the coroutine —
// every suspended and pooled coroutine is released before the caller
// sees it, so a caller that recovers and builds the next environment
// (the swarm's shrinker, the mutation smoke tests) leaks no goroutine.
// The teardown audit is skipped on that path: it must not raise a second
// violation while the first unwinds.
func (e *Env) loop(until Time) {
	e.until = until
	finished := false
	defer func() {
		if !finished {
			e.releaseParkedSlow()
		}
	}()
	for p := e.dispatch(); p != nil; p = e.dispatch() {
		e.switchTo(p)
	}
	finished = true
}

// Pending reports the number of scheduled events, for tests.
func (e *Env) Pending() int { return e.q.count }

// MaxPending reports the high-water mark of the pending-event count over
// the environment's lifetime: the queue depth the scheduler actually had
// to absorb, surfaced by the -qdepth flag of the shipped binaries. The
// wheel tracks the mark on its slow push path only (keeping the hot path
// inlinable), so a queue that never held two events at once is
// reconstructed here: seq counts every push, so seq > 0 with a zero mark
// means the depth peaked at exactly 1.
func (e *Env) MaxPending() int {
	if e.q.maxCount == 0 && e.seq > 0 {
		return 1
	}
	return e.q.maxCount
}

// KernelStats are the kernel's self-counters: where host time can go
// beyond one wheel dispatch per event. They are exact counts, identical
// across runs of one seed.
type KernelStats struct {
	Parks      int64 // Proc.park calls: sleeps, yields and waits that did not skip ahead
	Switches   int64 // transfers of control into a process's coroutine (each pairs with one back)
	SkipAheads int64 // sleeps and yields, of tasks and procs, that only advanced the clock
}

// KernelStats returns the kernel self-counters accumulated so far.
func (e *Env) KernelStats() KernelStats { return e.stats }

// LiveProcs reports the number of processes that have started but not yet
// terminated (parked or running), for leak detection in tests.
func (e *Env) LiveProcs() int { return e.nProcs }
