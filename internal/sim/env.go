package sim

import (
	"fmt"

	"repro/internal/simcheck"
)

// event is a scheduled callback. Events with equal times fire in schedule
// order (seq), which is what makes runs deterministic. A task firing —
// a process's start and every resume included — is an event whose fn is
// the task's cached wrapper, so scheduling one allocates nothing.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// Env is a simulation environment: a virtual clock, an event queue (a
// hierarchical timing wheel, see wheel.go), and the loop that fires its
// events one at a time. An Env is not safe for concurrent use; all
// interaction must happen from the goroutine that calls Run or from
// processes the Env itself is driving.
type Env struct {
	now Time
	q   wheel
	seq uint64
	rng *RNG

	stopped bool
	nProcs  int   // live (not yet terminated) processes, for leak detection
	procs   *Proc // processes whose coroutine has started and not ended

	// until is the bound of the run in progress, for skipAhead.
	until Time

	stats KernelStats

	// Invariant-oracle state (check.go). checked is latched at
	// construction from simcheck.On(), so arming must happen before the
	// environment is built; blocked is the waiter registry for the
	// lost-wakeup audit; lastAt/lastSeq back the dispatch-order oracle.
	checked bool
	blocked map[*Task]string
	lastAt  Time
	lastSeq uint64
}

// NewEnv returns an environment with its clock at zero, seeded with seed.
func NewEnv(seed int64) *Env {
	e := &Env{rng: NewRNG(seed)}
	if simcheck.On() {
		e.checked = true
		e.blocked = make(map[*Task]string)
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
	e.teardown()
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Env) RunAll() Time {
	e.loop(maxTime)
	e.teardown()
	return e.now
}

// loop pops and fires events in (at, seq) order up to until. It is the
// only code that pops the wheel: a process's resume is a task firing
// like any other, so a process never dispatches events itself. If the
// loop is left by a panic or a Goexit — raised by a callback, or by a
// process body and handed over by its coroutine — every process is
// unwound before the caller sees it, so a caller that recovers and builds
// the next environment (the swarm's shrinker, the mutation smoke tests)
// leaks no goroutine. The teardown audit is skipped on that path: it
// must not raise a second violation while the first unwinds.
func (e *Env) loop(until Time) {
	e.until = until
	finished := false
	defer func() {
		if !finished {
			e.releaseProcs()
		}
	}()
	// ev is hoisted out of the loop so the manual popUntil inline below
	// costs no per-iteration zeroing on the levelled (cache-miss) path.
	var ev event
	for !e.stopped {
		// wheel.popUntil, manually inlined (it sits just past the
		// inliner's budget, and this loop runs once per event): a cache
		// hit is a branch and a copy; every other case — empty cache,
		// cached event past until, levelled events — is popSlow's.
		if e.q.hasNext && e.q.next.at <= until {
			ev = e.q.next
			e.q.hasNext = false
			e.q.count--
		} else {
			var ok bool
			if ev, ok = e.q.popSlow(until); !ok {
				break
			}
		}
		if e.checked {
			e.checkDispatch(ev.at, ev.seq)
		}
		e.now = ev.at
		ev.fn()
	}
	finished = true
}

// teardown ends a run: the lost-wakeup audit, then every parked process
// is unwound so that repeated simulations (benchmark sweeps) do not leak
// goroutines — even when the audit raises.
func (e *Env) teardown() {
	if e.procs != nil {
		defer e.releaseProcs()
	}
	if e.checked {
		e.auditTeardown()
	}
}

// Pending reports the number of scheduled events, for tests.
func (e *Env) Pending() int { return e.q.count }

// MaxPending reports the high-water mark of the pending-event count over
// the environment's lifetime: the queue depth the scheduler actually had
// to absorb, which core registers as sim.max_pending. The wheel tracks
// the mark on its slow push path only (keeping the hot path inlinable),
// so a queue that never held two events at once is reconstructed here:
// seq counts every push, so seq > 0 with a zero mark means the depth
// peaked at exactly 1.
func (e *Env) MaxPending() int {
	if e.q.maxCount == 0 && e.seq > 0 {
		return 1
	}
	return e.q.maxCount
}

// Pushes reports how many events have been scheduled over the
// environment's lifetime (registered as sim.pushes): the wheel traffic a
// run generates, which divided by completed requests is its events per
// request.
func (e *Env) Pushes() uint64 { return e.seq }

// KernelStats are the kernel's self-counters: where host time can go
// beyond one wheel dispatch per event. They are exact counts, identical
// across runs of one seed.
type KernelStats struct {
	Parks      int64 // Proc.Park calls: sleeps and waits that did not skip ahead
	Switches   int64 // transfers of control into a process's coroutine (each pairs with one back)
	SkipAheads int64 // sleeps and yields, of tasks and procs, that only advanced the clock
}

// KernelStats returns the kernel self-counters accumulated so far.
func (e *Env) KernelStats() KernelStats { return e.stats }

// LiveProcs reports the number of processes that have started but not yet
// terminated (parked or running), for leak detection in tests.
func (e *Env) LiveProcs() int { return e.nProcs }
