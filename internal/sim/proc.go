package sim

import "iter"

// Proc is a simulated process: a coroutine that runs strictly one at a
// time under the event loop's control. A Proc may block on simulated time
// (Sleep) or on synchronization primitives (Gate); while it is blocked,
// other events and processes run. This is how goroutine-tier unithreads
// — application handlers in direct style, which block partway down a
// call stack — are expressed; everything whose wait points are known
// (the scheduler's cores included) uses the cheaper tier-1 Task
// (task.go) instead, which never leaves the event loop's goroutine.
//
// Each process runs on a runtime coroutine (iter.Pull): the loop
// goroutine — whichever goroutine called Run — resumes it with next, and
// a parking or terminating process returns control with yield. Control
// moves by a direct goroutine-to-goroutine switch that never enters the
// runtime scheduler, so at most one process (or the loop) executes at any
// moment, no user-level locking is needed anywhere in the simulator, and
// a panic (or Goexit) in a process body unwinds through next into Run's
// caller like any other. Only the loop goroutine ever calls next or stop:
// a process never resumes another process itself, which would nest the
// second inside the first instead of switching to it. The coroutine
// lives in a runner that outlives the Proc: when a process terminates,
// its runner returns to the environment's free list and the next start
// reuses it, so per-request process churn (one unithread per request in
// the scheduler) costs no coroutine creation in steady state. Terminated
// Proc objects are recycled the same way (freeProcs), so steady-state Go
// is allocation-free too.
//
// Direct handoff (the tier-2 fast path): before yielding, a parking
// process dispatches upcoming events itself (Env.dispatch, the same code
// the loop runs). A resume of the parking process returns from park with
// no switch at all (the Sleep and Gate.Wake→Wait shapes); a plain
// callback runs inline; a resume or start of another process is yielded
// to the loop, which switches to it without popping again — two
// coroutine switches. Only when the next event is past the run bound (or
// the queue drains) does the loop pop for itself. Dispatch order is
// bit-identical by construction: one function pops every event, only on
// different goroutines.
type Proc struct {
	env  *Env
	name string
	r    *runner
	body func(*Proc) // pending body between Go and the start event
	done bool

	// Intrusive doubly-linked list of currently-parked processes, for
	// teardown. Replaces a map so the hot park/resume path stays free of
	// hashing. parkNext doubles as the freeProcs link once terminated.
	parkPrev, parkNext *Proc
}

// abortSignal is panicked inside a parked process when the environment
// tears down, unwinding the process's stack. Process bodies must not
// park again from deferred functions.
type abortSignal struct{}

// runner is a reusable process executor: one coroutine and the three
// functions that switch into and out of it. Runners are pooled per Env
// (freeRunners) and recycled across processes within a run; releaseParked
// stops the pool when a run finishes so idle coroutines never outlive
// the simulation that created them.
type runner struct {
	resume func() (*Proc, bool) // loop → runner; returns what the runner yielded
	stop   func()               // loop → runner: make the pending yield return false
	yield  func(*Proc) bool     // runner → loop, naming the process to switch to (or nil)
	p      *Proc                // process the next resume of a pooled runner starts
	next   *runner              // free-list link
}

// Go creates a process that will begin executing fn at the current
// simulated time (after already-scheduled events at this time). The
// Proc object comes from the environment's free list when one is
// available; holding a *Proc past its termination is therefore only
// valid for identity-free uses.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := e.freeProcs
	if p != nil {
		e.freeProcs = p.parkNext
		*p = Proc{env: e, name: name, body: fn}
	} else {
		p = &Proc{env: e, name: name, body: fn}
	}
	e.nProcs++
	e.seq++
	e.q.push(event{at: e.now, seq: e.seq, proc: p})
	return p
}

// switchTo transfers control from the loop goroutine to p — the start
// of a new process (first firing after Go) on a pooled or new runner, or
// the resumption of a parked one — and then to each process the
// yielding one names in turn, until one yields nil.
func (e *Env) switchTo(p *Proc) {
	for p != nil {
		if p.body != nil {
			r := e.freeRunners
			if r != nil {
				e.freeRunners = r.next
			} else {
				r = e.newRunner()
			}
			r.p, p.r = p, r
		} else if p.done {
			panic("sim: resuming terminated proc " + p.name)
		}
		e.stats.Switches++
		p, _ = p.r.resume()
	}
}

// newRunner builds a runner whose coroutine runs process bodies until
// stop makes its yield return false. Between bodies the runner sits on
// the free list; the push happens while the loop goroutine is suspended
// in resume, so the list needs no locking.
func (e *Env) newRunner() *runner {
	r := &runner{}
	r.resume, r.stop = iter.Pull(func(yield func(*Proc) bool) {
		r.yield = yield
		for {
			p := r.p
			runBody(p)
			e.nProcs--
			e.releaseProc(p)
			r.next = e.freeRunners
			e.freeRunners = r
			if !yield(nil) {
				return
			}
		}
	})
	return r
}

// releaseProc recycles a terminated process object onto the free list.
// done stays set so a stale resume still trips the sanity check.
func (e *Env) releaseProc(p *Proc) {
	*p = Proc{env: e, done: true, parkNext: e.freeProcs}
	e.freeProcs = p
}

// runBody executes one process body, converting the teardown abort into
// a normal return so the runner ends through its loop. Any other panic
// continues into the coroutine, which hands it to the resume (or stop)
// that switched here: it reaches Run's caller with its value unchanged.
func runBody(p *Proc) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(abortSignal); !ok {
				panic(rec)
			}
		}
	}()
	fn := p.body
	p.body = nil
	fn(p)
}

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// park hands control back to the event loop until some event resumes this
// process. The caller must have arranged for a wake-up first. See the
// type comment for the direct-handoff fast path taken before the
// coroutine actually yields.
func (p *Proc) park() {
	e := p.env
	e.stats.Parks++
	p.parkNext = e.parkedHead
	if e.parkedHead != nil {
		e.parkedHead.parkPrev = p
	}
	// p.parkPrev is already nil: unlinkParked zeroed it after the last
	// resume, and Go/releaseProc reset fresh and recycled procs.
	e.parkedHead = p

	if q := e.dispatch(); q != p && !p.r.yield(q) {
		panic(abortSignal{})
	}
	e.unlinkParked(p)
}

// dispatch pops and dispatches events in (at, seq) order up to the run
// bound, running plain callbacks inline, until an event targets a
// process, and returns that process for the caller to switch to: the
// loop does, and so does a parking process unless the event is its own
// resume. It returns nil when the bound is reached, the queue drains or
// the run is stopped. Exactly one goroutine ever executes simulator
// code, so "event-loop context" holds for callbacks run from a process
// too.
func (e *Env) dispatch() *Proc {
	// ev is hoisted out of the loop so the manual popUntil inline below
	// costs no per-iteration zeroing on the levelled (cache-miss) path.
	var ev event
	for !e.stopped {
		// wheel.popUntil, manually inlined (it sits just past the
		// inliner's budget, and this loop runs once per event): a cache
		// hit is a branch and a copy; every other case — empty cache,
		// cached event past until, levelled events — is popSlow's.
		if e.q.hasNext && e.q.next.at <= e.until {
			ev = e.q.next
			e.q.hasNext = false
			e.q.count--
		} else {
			var ok bool
			if ev, ok = e.q.popSlow(e.until); !ok {
				break
			}
		}
		if e.checked {
			e.checkDispatch(ev.at, ev.seq)
		}
		e.now = ev.at
		if ev.proc == nil {
			ev.fn()
			continue
		}
		return ev.proc
	}
	return nil
}

// unlinkParked removes p, which must be on it, from the parked list.
func (e *Env) unlinkParked(p *Proc) {
	if p.parkPrev != nil {
		p.parkPrev.parkNext = p.parkNext
	} else {
		e.parkedHead = p.parkNext
	}
	if p.parkNext != nil {
		p.parkNext.parkPrev = p.parkPrev
	}
	p.parkPrev, p.parkNext = nil, nil
}

// scheduleResume arranges for p to be resumed at time at. It is the
// building block for all wake-ups: primitives never resume a process
// inline (that would nest processes); they always go through an event.
// The event carries the process directly — no closure is allocated on
// this path, which every Sleep and Gate.Wake takes.
func (e *Env) scheduleResume(p *Proc, at Time) {
	if at < e.now {
		panic("sim: scheduling resume in the past for " + p.name)
	}
	e.seq++
	e.q.push(event{at: at, seq: e.seq, proc: p})
}

// Park blocks the process until some event resumes it via ScheduleResume.
// It is the extension point for custom synchronization primitives in
// other packages (QP slot waits, fault-completion waits): the caller must
// have registered itself somewhere a future event will find it.
func (p *Proc) Park() { p.park() }

// ScheduleResume arranges for a parked process to be resumed at time at.
// The companion of Park for building custom primitives.
func (e *Env) ScheduleResume(p *Proc, at Time) { e.scheduleResume(p, at) }

// Yield parks the process behind every event already scheduled at the
// current time: it files its own resumption at now and parks, so pending
// same-timestamp events dispatch first, in order. With direct handoff, a
// Yield with nothing else pending returns with no coroutine switch —
// it is the cheapest possible park/resume boundary. The scheduler's flat
// unithread tier brackets each inline execution segment with Yields to
// reproduce, one for one, the event-queue boundaries a goroutine-backed
// unithread's handoff gates would have introduced, which keeps
// same-timestamp dispatch order bit-identical across the two tiers.
func (p *Proc) Yield() {
	e := p.env
	if e.skipAhead(e.now) {
		return // nothing pending at this instant: the park is a no-op
	}
	e.scheduleResume(p, e.now)
	p.park()
}

// Sleep blocks the process for d cycles of simulated time. In the system
// model, a worker or unithread sleeping represents the CPU core being
// busy for that long.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	e := p.env
	at := e.now + d
	if e.skipAhead(at) {
		return
	}
	e.scheduleResume(p, at)
	p.park()
}

// skipAhead is the clock-advance fast path for Sleep and Yield, of
// procs and tasks alike: when
// every pending event is strictly later than the caller's wake time,
// the event loop would pop the caller's own resume next — the resume
// would carry the highest sequence number, so an already-pending event
// would have to beat `at` outright to run first. In that case just
// advance the clock and keep running, skipping the wheel push/pop and
// the park entirely. Relative order of pending events is untouched, so
// schedules are bit-identical with and without the fast path. Disabled
// in checked builds so the wheel and dispatch-order oracles observe
// every transition, and within a horizon-bounded Run a process never
// advances past `until` (it must park and stay parked, exactly as the
// slow path leaves it).
func (e *Env) skipAhead(at Time) bool {
	if e.checked || e.stopped || at > e.until || !e.q.peekBeyond(at) {
		return false
	}
	e.now = at
	e.stats.SkipAheads++
	return true
}

// releaseParked unwinds any still-parked processes and stops the runner
// pool. Called when a run finishes so that repeated simulations
// (benchmark sweeps) do not leak goroutines. The common
// nothing-to-release case — no process ever parked, no runner pooled —
// inlines into Run/RunAll; the unwind loops live in the slow half.
func (e *Env) releaseParked() {
	e.foldMaxPending()
	if e.checked {
		e.auditTeardown()
	}
	if e.parkedHead != nil || e.freeRunners != nil {
		e.releaseParkedSlow()
	}
}

// releaseParkedSlow stops every coroutine the environment still owns. A
// parked process unwinds (abortSignal), pushes its runner on the free
// list and ends; stopping it a second time from that list, or stopping
// a runner whose coroutine a panic already ended, does nothing.
func (e *Env) releaseParkedSlow() {
	for e.parkedHead != nil {
		p := e.parkedHead
		e.unlinkParked(p)
		p.r.stop()
	}
	for r := e.freeRunners; r != nil; r = r.next {
		r.stop()
	}
	e.freeRunners = nil
}
